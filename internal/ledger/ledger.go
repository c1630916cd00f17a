package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"dltprivacy/internal/dcrypto"
)

// Errors returned by ledger operations.
var (
	// ErrBadBlock is returned when a block fails chain validation.
	ErrBadBlock = errors.New("ledger: invalid block")
	// ErrNotFound is returned when a key or block is absent.
	ErrNotFound = errors.New("ledger: not found")
	// ErrArchived is returned by Block when the requested block has been
	// pruned into the archive; it remains available via Archived.
	ErrArchived = errors.New("ledger: block pruned to archive")
)

// Block is a batch of ordered transactions chained by hash.
type Block struct {
	Number   uint64        `json:"number"`
	PrevHash [32]byte      `json:"prevHash"`
	DataHash [32]byte      `json:"dataHash"`
	Txs      []Transaction `json:"txs"`
}

// computeDataHash hashes the block's transactions by chaining their
// canonical digests — endorsements included via a second digest dimension
// would be redundant here; the per-tx Digest already covers the ordered
// content, and hashing 32-byte digests instead of re-marshalling every
// transaction keeps block cutting off the allocation profile. With
// fromContent each digest is hashed from the transaction's bytes, whatever
// memo it was primed with (ContentDataHash).
func computeDataHash(txs []Transaction, fromContent bool) [32]byte {
	// Most blocks on the unbatched path carry one transaction: stage a few
	// digests on the stack and allocate only beyond that.
	var few [4 * 32]byte
	h := few[:0]
	if 32*len(txs) > len(few) {
		h = make([]byte, 0, 32*len(txs))
	}
	for _, tx := range txs {
		var d [32]byte
		if fromContent {
			d = tx.digest(dcrypto.Hash(tx.Payload))
		} else {
			d = tx.Digest()
		}
		h = append(h, d[:]...)
	}
	return dcrypto.Hash(h)
}

// ContentDataHash is the DataHash of txs recomputed from their bytes. A
// primed transaction's Digest is the memo of its bytes at priming, so a
// check that reads it cannot see a payload written over afterwards; this one
// does.
func ContentDataHash(txs []Transaction) [32]byte { return computeDataHash(txs, true) }

// NewBlock assembles a block for an external block producer (an ordering
// service) that tracks chain state itself.
func NewBlock(number uint64, prevHash [32]byte, txs []Transaction) Block {
	return Block{
		Number:   number,
		PrevHash: prevHash,
		DataHash: computeDataHash(txs, false),
		Txs:      txs,
	}
}

// Hash returns the block header hash.
//
// The value is dcrypto.HashConcat(number, PrevHash, DataHash), number being
// 8 big-endian bytes. HashConcat's encoding (each part preceded by its
// length as 8 big-endian bytes) is staged here in a stack buffer, because
// passed through HashConcat's hash.Hash interface the three arrays would
// each be copied to the heap on every call.
func (b Block) Hash() [32]byte {
	var buf [8 + 8 + 8 + 32 + 8 + 32]byte
	binary.BigEndian.PutUint64(buf[0:], 8)
	binary.BigEndian.PutUint64(buf[8:], b.Number)
	binary.BigEndian.PutUint64(buf[16:], 32)
	copy(buf[24:], b.PrevHash[:])
	binary.BigEndian.PutUint64(buf[56:], 32)
	copy(buf[64:], b.DataHash[:])
	return dcrypto.Hash(buf[:])
}

// TxValidator vets a transaction before it is committed. Platforms plug in
// endorsement-policy checks here.
type TxValidator func(tx Transaction) error

// Ledger is an append-only chain of blocks with a versioned world state.
type Ledger struct {
	channel string

	mu        sync.RWMutex
	blocks    []Block // live blocks (post-pruning suffix)
	archive   []Block // pruned prefix, still available on request
	height    uint64
	lastHash  [32]byte
	state     map[string]VersionedValue
	validator TxValidator
}

// VersionedValue is a world-state entry with its last-modified version
// (block number, tx index).
type VersionedValue struct {
	Value    []byte
	BlockNum uint64
	TxIndex  int
}

// New creates an empty ledger for a channel.
func New(channel string) *Ledger {
	return &Ledger{
		channel: channel,
		state:   make(map[string]VersionedValue),
	}
}

// Height returns the number of blocks appended so far (including pruned).
func (l *Ledger) Height() uint64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.height
}

// CutBlock assembles the next block from transactions; it does not append.
func (l *Ledger) CutBlock(txs []Transaction) Block {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return Block{
		Number:   l.height,
		PrevHash: l.lastHash,
		DataHash: computeDataHash(txs, false),
		Txs:      txs,
	}
}

// Append validates and commits a block: chain linkage, per-transaction
// structural validation, endorsement verification, the installed validator,
// and finally world-state application.
func (l *Ledger) Append(b Block) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if b.Number != l.height {
		return fmt.Errorf("%w: number %d, want %d", ErrBadBlock, b.Number, l.height)
	}
	if b.PrevHash != l.lastHash {
		return fmt.Errorf("%w: broken hash chain at block %d", ErrBadBlock, b.Number)
	}
	if b.DataHash != computeDataHash(b.Txs, false) {
		return fmt.Errorf("%w: data hash mismatch at block %d", ErrBadBlock, b.Number)
	}
	for i, tx := range b.Txs {
		if err := tx.Validate(); err != nil {
			return fmt.Errorf("block %d tx %d: %w", b.Number, i, err)
		}
		if err := tx.VerifyEndorsements(); err != nil {
			return fmt.Errorf("block %d tx %d: %w", b.Number, i, err)
		}
		if l.validator != nil {
			if err := l.validator(tx); err != nil {
				return fmt.Errorf("block %d tx %d rejected: %w", b.Number, i, err)
			}
		}
	}
	for i, tx := range b.Txs {
		for _, w := range tx.Writes {
			if w.Delete {
				delete(l.state, w.Key)
				continue
			}
			l.state[w.Key] = VersionedValue{
				Value:    append([]byte(nil), w.Value...),
				BlockNum: b.Number,
				TxIndex:  i,
			}
		}
	}
	// The block's Txs may be lent for the call (an orderer's delivery is),
	// so the chain keeps a copy.
	b.Txs = slices.Clone(b.Txs)
	l.blocks = append(l.blocks, b)
	l.height++
	l.lastHash = b.Hash()
	return nil
}

// Get reads a world-state value.
func (l *Ledger) Get(key string) (VersionedValue, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	v, ok := l.state[key]
	if !ok {
		return VersionedValue{}, fmt.Errorf("key %q: %w", key, ErrNotFound)
	}
	return VersionedValue{
		Value:    append([]byte(nil), v.Value...),
		BlockNum: v.BlockNum,
		TxIndex:  v.TxIndex,
	}, nil
}

// GetByPrefix returns all live world-state entries whose key starts with
// the prefix, as a key -> value copy map.
func (l *Ledger) GetByPrefix(prefix string) map[string][]byte {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make(map[string][]byte)
	for k, v := range l.state {
		if strings.HasPrefix(k, prefix) {
			out[k] = append([]byte(nil), v.Value...)
		}
	}
	return out
}

// Block returns a live block by number, ErrArchived if pruned, ErrNotFound
// beyond the chain tip.
func (l *Ledger) Block(num uint64) (Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if num >= l.height {
		return Block{}, fmt.Errorf("block %d: %w", num, ErrNotFound)
	}
	archived := uint64(len(l.archive))
	if num < archived {
		return Block{}, fmt.Errorf("block %d: %w", num, ErrArchived)
	}
	return l.blocks[num-archived], nil
}

// Archived returns a pruned block on request, mirroring the paper's note
// that archived entries remain available to parties.
func (l *Ledger) Archived(num uint64) (Block, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if num >= uint64(len(l.archive)) {
		return Block{}, fmt.Errorf("archived block %d: %w", num, ErrNotFound)
	}
	return l.archive[num], nil
}

// Prune moves every block below upTo into the archive. World state is
// unaffected: pruning is an operational storage measure, not deletion.
func (l *Ledger) Prune(upTo uint64) (moved int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	archived := uint64(len(l.archive))
	if upTo > l.height {
		return 0, fmt.Errorf("%w: prune beyond height", ErrBadBlock)
	}
	if upTo <= archived {
		return 0, nil
	}
	n := upTo - archived
	l.archive = append(l.archive, l.blocks[:n]...)
	l.blocks = l.blocks[n:]
	return int(n), nil
}

// LiveBlocks returns the count of unpruned blocks.
func (l *Ledger) LiveBlocks() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.blocks)
}

// VerifyChain walks the full chain (archive + live) and re-checks linkage.
func (l *Ledger) VerifyChain() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var prev [32]byte
	num := uint64(0)
	check := func(b Block) error {
		if b.Number != num {
			return fmt.Errorf("%w: number %d, want %d", ErrBadBlock, b.Number, num)
		}
		if b.PrevHash != prev {
			return fmt.Errorf("%w: linkage at block %d", ErrBadBlock, b.Number)
		}
		if b.DataHash != computeDataHash(b.Txs, false) {
			return fmt.Errorf("%w: data hash at block %d", ErrBadBlock, b.Number)
		}
		prev = b.Hash()
		num++
		return nil
	}
	for _, b := range l.archive {
		if err := check(b); err != nil {
			return err
		}
	}
	for _, b := range l.blocks {
		if err := check(b); err != nil {
			return err
		}
	}
	return nil
}
