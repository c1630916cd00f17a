package ledger

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"dltprivacy/internal/dcrypto"
)

// referenceDigest is Transaction.digest as it stood before the meta keys were
// sorted on the stack: the keys go into a heap slice and through
// sort.Strings. Kept as the oracle of the tests below.
func referenceDigest(tx Transaction) [32]byte {
	h := dcrypto.NewConcatHasher()
	h.RawString("ledger/tx/v3")
	h.PartString(tx.Channel)
	h.PartString(tx.Creator)
	h.PartString(tx.Contract)
	h.PartSum(len(tx.Payload), dcrypto.Hash(tx.Payload))
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
	keys := make([]string, 0, len(tx.Meta))
	for k := range tx.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.PartString(k)
		h.PartString(tx.Meta[k])
	}
	h.RawUint64(uint64(tx.Timestamp.UTC().UnixNano()))
	return h.Sum()
}

// TestDigestIgnoresMapOrder: the digest of a transaction is the same however
// its Meta map iterates — Go starts every range at a random bucket — at no
// keys, one, the eight the stack array holds and the nine that spill.
func TestDigestIgnoresMapOrder(t *testing.T) {
	for _, n := range []int{0, 1, 8, 9} {
		base := tx("trade", "BankA", "k", "v")
		base.Meta = make(map[string]string, n)
		for i := 0; i < n; i++ {
			base.Meta[fmt.Sprintf("key-%d", (i*5)%n)] = fmt.Sprint(i)
		}
		want := referenceDigest(base)
		for round := 0; round < 64; round++ {
			// A map built afresh, in another insertion order, iterates in
			// another order still.
			again := base
			again.Meta = make(map[string]string)
			for i := n - 1; i >= 0; i-- {
				k := fmt.Sprintf("key-%d", (i+round)%n)
				again.Meta[k] = base.Meta[k]
			}
			if got := again.Digest(); got != want {
				t.Fatalf("%d keys, round %d: digest %x, want %x", n, round, got, want)
			}
			if got := base.Digest(); got != want {
				t.Fatalf("%d keys, round %d: digest of the same map %x, want %x", n, round, got, want)
			}
		}
	}
}

// fuzzMeta builds exactly b[0]%21 distinct entries out of fuzz bytes: short
// chunks of the input, each key ending in its index.
func fuzzMeta(b []byte) map[string]string {
	if len(b) == 0 {
		return nil
	}
	n := int(b[0]) % 21
	b = b[1:]
	chunk := func() string {
		if len(b) == 0 {
			return ""
		}
		l := min(int(b[0])%8, len(b)-1)
		s := string(b[1 : 1+l])
		b = b[1+l:]
		return s
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := chunk() + string(rune('a'+i))
		m[k] = chunk()
	}
	return m
}

// FuzzTxDigest holds the digest against referenceDigest for an arbitrary
// transaction with 0 to 20 meta entries, on both sides of the stack array's
// eight, and checks that priming — from content or from a payload sum handed
// in — never changes what Digest returns.
func FuzzTxDigest(f *testing.F) {
	f.Add("deals", "alice", "", []byte("trade"), []byte(nil), int64(1700000000), false)
	f.Add("deals", "alice", "kv", []byte("trade"), []byte{2, 3, 'e', 'n', 'v', 1, 'x', 3, 'g', 'w', 'y'}, int64(0), true)
	f.Add("", "", "", []byte(nil), []byte{8}, int64(-1), false)
	f.Add("c", "batch", "", []byte{0xDC, 0x03}, []byte{9, 0, 0, 7, 1, 2, 3, 4, 5, 6, 7}, int64(1), true)
	f.Add("c", "p", "", []byte("p"), []byte{20, 1, 'k'}, int64(1<<62), false)
	f.Fuzz(func(t *testing.T, channel, creator, contract string, payload, meta []byte, nanos int64, write bool) {
		tx := Transaction{
			Channel: channel, Creator: creator, Contract: contract, Payload: payload,
			Meta: fuzzMeta(meta), Timestamp: time.Unix(0, nanos),
		}
		if write {
			tx.Writes = []Write{{Key: creator, Value: payload}, {Key: channel, Delete: true}}
		}
		want := referenceDigest(tx)
		if got := tx.Digest(); got != want {
			t.Fatalf("%d meta entries: digest %x, reference %x", len(tx.Meta), got, want)
		}
		primed, primedWithSum := tx, tx
		primed.PrimeDigest()
		primedWithSum.PrimeDigestWithPayloadSum(dcrypto.Hash(payload))
		if primed.Digest() != want || primedWithSum.Digest() != want {
			t.Fatalf("priming changed the digest: %x and %x, want %x", primed.Digest(), primedWithSum.Digest(), want)
		}
	})
}
