package ordering

import "dltprivacy/internal/ledger"

// Backend abstracts the ordering service a platform plugs in: a
// ReplicatedShard — run by one operator (third party or single member) or
// replicated over the channel's members (§3.4 mitigation) — or a
// ShardedBackend over several.
type Backend interface {
	// Submit queues a transaction for ordering on its channel.
	Submit(tx ledger.Transaction) error
	// Subscribe registers a block consumer for a channel.
	Subscribe(channel string, deliver DeliverFunc)
	// Operators names the principals operating the service; they observe
	// whatever the visibility level exposes.
	Operators() []string
}
