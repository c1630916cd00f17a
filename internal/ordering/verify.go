package ordering

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"dltprivacy/internal/ledger"
)

// ChainVerifier checks one channel's delivery stream against the ordering
// contract: block numbers gap-free from 0, every PrevHash the hash of the
// block before, every DataHash that of the block's transactions as their
// bytes read on delivery (ledger.ContentDataHash, not the digests primed at
// intake), no transaction ID delivered twice. Subscribe its Deliver
// method; the zero value is ready to use.
//
// Deliveries for a channel are serialized by whatever orders it (and,
// across migration or failover, by the migration gate and election lock),
// so the chain fields are deliberately unguarded: under -race they are
// themselves a check of that serialization. Only the violation list, which
// may be read while traffic still flows, takes the lock.
type ChainVerifier struct {
	next     uint64
	lastHash [32]byte
	txs      int
	seen     map[string]struct{}

	mu         sync.Mutex
	violations []string
}

// Deliver is a DeliverFunc. A violation is recorded, never returned: the
// verifier observes the stream without feeding errors back into ordering.
func (v *ChainVerifier) Deliver(b ledger.Block) error {
	if b.Number != v.next {
		v.bad("block %d out of order, want %d", b.Number, v.next)
	} else if v.next > 0 && b.PrevHash != v.lastHash {
		v.bad("block %d breaks the hash chain", b.Number)
	}
	if b.DataHash != ledger.ContentDataHash(b.Txs) {
		v.bad("block %d's data hash does not cover its transactions", b.Number)
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
	v.next, v.lastHash = b.Number+1, b.Hash()
	v.txs += len(b.Txs)
	return nil
}

func (v *ChainVerifier) bad(format string, args ...any) {
	v.mu.Lock()
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
	v.mu.Unlock()
}

// Txs returns the number of transactions delivered; like the chain fields
// it reads, it is meaningful once the stream is quiescent.
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
