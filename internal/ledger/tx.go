// Package ledger implements the append-only block ledger substrate: signed
// transactions with read/write sets, hash-chained blocks, a versioned world
// state, a validation pipeline, and the pruning/archiving behaviour the paper
// notes in §3.2 ("some ledger implementations offer the ability to 'prune'
// the chain … archived entries are generally still available to parties on
// request").
package ledger

import (
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"time"

	"dltprivacy/internal/dcrypto"
)

// Errors returned by transaction handling.
var (
	// ErrBadTx is returned when a transaction fails structural checks.
	ErrBadTx = errors.New("ledger: invalid transaction")
	// ErrBadSignature is returned when an endorsement signature does not
	// verify.
	ErrBadSignature = errors.New("ledger: endorsement signature invalid")
)

// Write is one world-state mutation.
type Write struct {
	Key    string `json:"key"`
	Value  []byte `json:"value,omitempty"`
	Delete bool   `json:"delete,omitempty"`
}

// Endorsement is a party's signature over the transaction digest.
type Endorsement struct {
	Party     string            `json:"party"`
	PublicKey []byte            `json:"publicKey"`
	Sig       dcrypto.Signature `json:"sig"`
}

// Transaction is a proposed ledger update. Payload carries application
// content (possibly encrypted or hashed, depending on the confidentiality
// mechanism in force); Writes carries the world-state effect. Meta is
// read-only once the transaction is ordered: a gateway hands one map to every
// transaction that carries only the gateway's own notes.
type Transaction struct {
	Channel   string            `json:"channel"`
	Creator   string            `json:"creator"`
	Contract  string            `json:"contract,omitempty"`
	Payload   []byte            `json:"payload,omitempty"`
	Writes    []Write           `json:"writes,omitempty"`
	Meta      map[string]string `json:"meta,omitempty"`
	Timestamp time.Time         `json:"timestamp"`

	Endorsements []Endorsement `json:"endorsements,omitempty"`

	// digestMemo caches the canonical digest once PrimeDigest has run
	// (primed). Held by value, so priming allocates nothing and the memo
	// rides along value copies of a primed transaction (into an ordering
	// service's pending slice, into a cut block): every later hop —
	// observation, block data hash, subscribers — reads the one digest
	// instead of hashing the payload again. Wire-decoded and hand-built
	// transactions are unprimed and hash from content. The holder must treat
	// a primed transaction as immutable — which ordered transactions already
	// are. The 33 bytes take Transaction from 160 to 192, the size class a
	// one-transaction block's Txs slice already falls into.
	digestMemo [32]byte
	primed     bool
}

// PrimeDigest computes and caches the canonical digest. An ordering
// service primes at intake, so a transaction is hashed from content at most
// once however many hops read its digest; the transaction must not be
// mutated afterwards. A no-op on a transaction already primed.
func (tx *Transaction) PrimeDigest() {
	if !tx.primed {
		tx.PrimeDigestWithPayloadSum(dcrypto.Hash(tx.Payload))
	}
}

// PrimeDigestWithPayloadSum is PrimeDigest for a caller that already holds
// payloadSum = SHA-256(tx.Payload) — the gateway, whose encrypt stage
// produced the sum while sealing — so the payload is not streamed again.
// The sum is trusted: a wrong one primes a digest that does not match the
// content.
func (tx *Transaction) PrimeDigestWithPayloadSum(payloadSum [32]byte) {
	if !tx.primed {
		tx.digestMemo, tx.primed = tx.digest(payloadSum), true
	}
}

// Digest returns the canonical hash of the signed content of the
// transaction (everything except the endorsements): length-prefixed fields
// in fixed order, meta keys sorted, the timestamp as UTC nanoseconds,
// streamed into a pooled SHA-256 state — no JSON, no reflection. The
// payload enters as its length and SHA-256 (ConcatHasher.PartSum), not as
// its bytes: the digest binds every payload byte all the same, and a hop
// that holds the payload's sum (PrimeDigestWithPayloadSum) computes it
// without touching the payload. An unprimed transaction hashes its payload
// here, on every call.
func (tx Transaction) Digest() [32]byte {
	if tx.primed {
		return tx.digestMemo
	}
	return tx.digest(dcrypto.Hash(tx.Payload))
}

// digest is the canonical-form hash given SHA-256 of the payload.
func (tx Transaction) digest(payloadSum [32]byte) [32]byte {
	h := dcrypto.NewConcatHasher()
	h.RawString("ledger/tx/v3")
	h.PartString(tx.Channel)
	h.PartString(tx.Creator)
	h.PartString(tx.Contract)
	h.PartSum(len(tx.Payload), payloadSum)
	h.RawUint64(uint64(len(tx.Writes)))
	for _, w := range tx.Writes {
		h.PartString(w.Key)
		h.Part(w.Value)
		if w.Delete {
			h.RawByte(1)
		} else {
			h.RawByte(0)
		}
	}
	h.RawUint64(uint64(len(tx.Meta)))
	if len(tx.Meta) > 0 {
		// Sorted on the stack — a gateway's transaction carries two or three
		// keys, past eight append spills to the heap — and by slices.Sort:
		// sort.Strings would make the array escape through its interface.
		var stack [8]string
		keys := stack[:0]
		for k := range tx.Meta {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			h.PartString(k)
			h.PartString(tx.Meta[k])
		}
	}
	h.RawUint64(uint64(tx.Timestamp.UTC().UnixNano()))
	return h.Sum()
}

// ID returns the transaction identifier, the hex form of the digest.
func (tx Transaction) ID() string {
	id := tx.HexID()
	return string(id[:])
}

// HexID returns the characters of ID as an array, for callers on the
// submit path that only pass the identifier on (string(id[:]) of a local
// array does not allocate when the callee does not retain it).
func (tx Transaction) HexID() [32]byte {
	d := tx.Digest()
	var id [32]byte
	hex.Encode(id[:], d[:16])
	return id
}

// Endorse appends a signature by the given party over the tx digest.
func (tx *Transaction) Endorse(party string, key interface {
	Sign([]byte) (dcrypto.Signature, error)
	Public() dcrypto.PublicKey
}) error {
	d := tx.Digest()
	sig, err := key.Sign(d[:])
	if err != nil {
		return fmt.Errorf("endorse tx %s: %w", tx.ID(), err)
	}
	tx.Endorsements = append(tx.Endorsements, Endorsement{
		Party:     party,
		PublicKey: key.Public().Bytes(),
		Sig:       sig,
	})
	return nil
}

// VerifyEndorsements checks every endorsement signature.
func (tx Transaction) VerifyEndorsements() error {
	d := tx.Digest()
	for _, e := range tx.Endorsements {
		pub, err := dcrypto.ParsePublicKey(e.PublicKey)
		if err != nil {
			return fmt.Errorf("endorsement by %s: %w", e.Party, ErrBadSignature)
		}
		if err := pub.Verify(d[:], e.Sig); err != nil {
			return fmt.Errorf("endorsement by %s: %w", e.Party, ErrBadSignature)
		}
	}
	return nil
}

// EndorsedBy reports whether the named party endorsed the transaction.
func (tx Transaction) EndorsedBy(party string) bool {
	for _, e := range tx.Endorsements {
		if e.Party == party {
			return true
		}
	}
	return false
}

// Validate performs structural checks.
func (tx Transaction) Validate() error {
	if tx.Channel == "" {
		return fmt.Errorf("%w: missing channel", ErrBadTx)
	}
	if tx.Creator == "" {
		return fmt.Errorf("%w: missing creator", ErrBadTx)
	}
	for _, w := range tx.Writes {
		if w.Key == "" {
			return fmt.Errorf("%w: write with empty key", ErrBadTx)
		}
		if w.Delete && len(w.Value) > 0 {
			return fmt.Errorf("%w: delete write carries a value", ErrBadTx)
		}
	}
	return nil
}
