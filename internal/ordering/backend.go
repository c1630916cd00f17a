package ordering

import "dltprivacy/internal/ledger"

// Backend abstracts the ordering service a platform plugs in: the solo
// Service (third-party or single-member operated) or a member-run
// replicated ReplicatedShard (§3.4 mitigation).
type Backend interface {
	// Submit queues a transaction for ordering on its channel.
	Submit(tx ledger.Transaction) error
	// Subscribe registers a block consumer for a channel.
	Subscribe(channel string, deliver DeliverFunc)
	// Operators names the principals operating the service; they observe
	// whatever the visibility level exposes.
	Operators() []string
}
