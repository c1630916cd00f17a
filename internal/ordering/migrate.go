package ordering

import (
	"errors"

	"dltprivacy/internal/ledger"
)

// Errors returned by the channel-migration protocol.
var (
	// ErrChannelExists is returned when importing a channel onto a shard
	// that already holds state for it — accepting the import would fork the
	// chain.
	ErrChannelExists = errors.New("ordering: channel already has state on this shard")
	// ErrNotMigratable is returned when a shard backend does not implement
	// ChannelMigrator.
	ErrNotMigratable = errors.New("ordering: shard backend cannot migrate channels")
)

// ChannelState is the portable chain state of one channel: everything a
// receiving shard needs to continue the chain exactly where the sending
// shard stopped. Committed blocks themselves stay with subscribers (they
// were delivered); what moves is the head of the chain and the queue.
type ChannelState struct {
	// Tip is where the chain stands: the next block is numbered Height and
	// chained to Hash.
	ledger.Tip
	// Pending holds submitted-but-unsequenced transactions, in submission
	// order; the receiving shard sequences them before any new traffic.
	Pending []ledger.Transaction
}

// ChannelMigrator is implemented by ordering backends whose per-channel
// chain state can be moved to another shard while the topology is live.
// Export removes the channel from the shard (subsequent submissions there
// would fork the chain) and Import installs it; the caller — in practice
// ShardedBackend.Migrate — is responsible for quiescing the channel's
// traffic around the pair and re-attaching subscriptions on the target.
type ChannelMigrator interface {
	// ExportChannel removes and returns the channel's chain state.
	// Shard-side subscriptions for the channel are dropped with it.
	ExportChannel(channel string) (ChannelState, error)
	// ImportChannel installs chain state for a channel this shard has
	// never served (ErrChannelExists otherwise).
	ImportChannel(channel string, st ChannelState) error
}

// Compile-time check: every first-party shard backend supports migration.
var _ ChannelMigrator = (*ReplicatedShard)(nil)
