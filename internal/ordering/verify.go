package ordering

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dltprivacy/internal/ledger"
)

// ChainVerifier checks one channel's delivery stream against the ordering
// contract. The chain check is ledger.Tip.Extend's: block numbers gap-free
// from 0, every PrevHash the hash of the block before, every DataHash that
// of the block's transactions as their bytes read on delivery. What the
// verifier owns is the rest: the set of delivered transaction IDs (none
// delivered twice), the list of violations, and the resync after a block
// the check refused, so that one bad block is reported once. Subscribe its
// Deliver method; the zero value is ready to use.
//
// Deliveries for a channel are serialized by whatever orders it (and,
// across migration or failover, by the migration gate and election lock),
// so the tip, count and ID set are deliberately unguarded: under -race they
// are themselves a check of that serialization. Only the violation list,
// which may be read while traffic still flows, takes the lock.
type ChainVerifier struct {
	tip  ledger.Tip
	txs  int
	seen map[string]struct{}

	mu         sync.Mutex
	violations []string
}

// Deliver is a DeliverFunc. A violation is recorded, never returned: the
// verifier observes the stream without feeding errors back into ordering.
func (v *ChainVerifier) Deliver(b ledger.Block) error {
	if err := v.tip.Extend(b); err != nil {
		v.bad("%v", err)
		v.tip = ledger.Tip{Height: b.Number + 1, Hash: b.Hash()}
	}
	if v.seen == nil {
		v.seen = make(map[string]struct{})
	}
	for _, tx := range b.Txs {
		id := tx.ID()
		if _, dup := v.seen[id]; dup {
			v.bad("tx %s delivered twice", id)
		}
		v.seen[id] = struct{}{}
	}
	v.txs += len(b.Txs)
	return nil
}

func (v *ChainVerifier) bad(format string, args ...any) {
	v.mu.Lock()
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

// Txs returns the number of transactions delivered; like the tip, it is
// meaningful once the stream is quiescent.
func (v *ChainVerifier) Txs() int { return v.txs }

// Violations returns every contract violation seen so far, in delivery
// order; a healthy stream has none.
func (v *ChainVerifier) Violations() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.violations...)
}

// err returns the violations as one error, nil for a healthy stream.
func (v *ChainVerifier) err() error {
	if vs := v.Violations(); len(vs) > 0 {
		return errors.New(strings.Join(vs, "; "))
	}
	return nil
}
