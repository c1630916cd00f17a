package ordering

import (
	"errors"
	"fmt"

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
	// Height is the number of blocks cut so far; the next block is numbered
	// Height.
	Height uint64
	// LastHash is the hash of the last cut block, chained into the next.
	LastHash [32]byte
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

// Compile-time checks: every first-party shard backend supports migration.
var (
	_ ChannelMigrator = (*Service)(nil)
	_ ChannelMigrator = (*ReplicatedShard)(nil)
)

// ExportChannel implements ChannelMigrator for the solo service. Any
// subscribers registered directly on this service for the channel are
// dropped with the chain; in the sharded topology the only shard-side
// subscriber is the ShardedBackend relay, which the migration re-attaches
// on the target shard.
func (s *Service) ExportChannel(channel string) (ChannelState, error) {
	s.mu.Lock()
	c, ok := s.chains[channel]
	s.mu.Unlock()
	if !ok {
		return ChannelState{}, fmt.Errorf("%w: %s", ErrUnknownChannel, channel)
	}
	// The delivery lock drains an in-flight flush before the snapshot, so
	// the exported head never straddles a block cut.
	c.deliver.Lock()
	defer c.deliver.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ChannelState{
		Height:   c.height,
		LastHash: c.lastHash,
		Pending:  append([]ledger.Transaction(nil), c.pending...),
	}
	delete(s.chains, channel)
	return st, nil
}

// ImportChannel implements ChannelMigrator for the solo service.
func (s *Service) ImportChannel(channel string, st ChannelState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.chains[channel]; ok && (c.height > 0 || len(c.pending) > 0 || len(c.subs) > 0) {
		return fmt.Errorf("%w: %s", ErrChannelExists, channel)
	}
	s.chains[channel] = &chainState{
		height:   st.Height,
		lastHash: st.LastHash,
		pending:  append([]ledger.Transaction(nil), st.Pending...),
	}
	return nil
}
