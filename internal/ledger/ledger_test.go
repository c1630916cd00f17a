package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"dltprivacy/internal/dcrypto"
)

func tx(channel, creator, key, value string) Transaction {
	return Transaction{
		Channel:   channel,
		Creator:   creator,
		Payload:   []byte(value),
		Writes:    []Write{{Key: key, Value: []byte(value)}},
		Timestamp: time.Unix(1700000000, 0).UTC(),
	}
}

func appendBlock(t *testing.T, l *Ledger, txs ...Transaction) Block {
	t.Helper()
	b := l.CutBlock(txs)
	if err := l.Append(b); err != nil {
		t.Fatalf("Append block %d: %v", b.Number, err)
	}
	return b
}

func TestAppendAndGet(t *testing.T) {
	l := New("trade")
	appendBlock(t, l, tx("trade", "BankA", "k1", "v1"))
	got, err := l.Get("k1")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got.Value) != "v1" || got.BlockNum != 0 {
		t.Fatalf("Get = %+v", got)
	}
	if l.Height() != 1 {
		t.Fatalf("Height = %d, want 1", l.Height())
	}
}

func TestGetMissing(t *testing.T) {
	l := New("trade")
	if _, err := l.Get("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing = %v, want ErrNotFound", err)
	}
}

func TestHashChainEnforced(t *testing.T) {
	l := New("trade")
	appendBlock(t, l, tx("trade", "BankA", "k1", "v1"))
	bad := l.CutBlock([]Transaction{tx("trade", "BankA", "k2", "v2")})
	bad.PrevHash = [32]byte{0xde, 0xad}
	if err := l.Append(bad); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("broken chain = %v, want ErrBadBlock", err)
	}
}

func TestWrongBlockNumber(t *testing.T) {
	l := New("trade")
	b := l.CutBlock([]Transaction{tx("trade", "A", "k", "v")})
	b.Number = 7
	if err := l.Append(b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("wrong number = %v, want ErrBadBlock", err)
	}
}

func TestDataHashMismatch(t *testing.T) {
	l := New("trade")
	b := l.CutBlock([]Transaction{tx("trade", "A", "k", "v")})
	b.Txs = append(b.Txs, tx("trade", "B", "k2", "v2")) // tamper after cut
	if err := l.Append(b); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("tampered data = %v, want ErrBadBlock", err)
	}
}

func TestStructuralValidation(t *testing.T) {
	l := New("trade")
	cases := []Transaction{
		{Creator: "A", Writes: []Write{{Key: "k"}}},                                                     // no channel
		{Channel: "trade", Writes: []Write{{Key: "k"}}},                                                 // no creator
		{Channel: "trade", Creator: "A", Writes: []Write{{Key: ""}}},                                    // empty key
		{Channel: "trade", Creator: "A", Writes: []Write{{Key: "k", Delete: true, Value: []byte("x")}}}, // delete+value
	}
	for i, bad := range cases {
		b := l.CutBlock([]Transaction{bad})
		if err := l.Append(b); !errors.Is(err, ErrBadTx) {
			t.Fatalf("case %d: Append = %v, want ErrBadTx", i, err)
		}
	}
}

func TestEndorsementsVerified(t *testing.T) {
	l := New("trade")
	key, _ := dcrypto.GenerateKey()
	good := tx("trade", "BankA", "k", "v")
	if err := good.Endorse("BankA", key); err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	appendBlock(t, l, good)

	// Tampering after endorsement invalidates the signature.
	bad := tx("trade", "BankA", "k2", "v2")
	if err := bad.Endorse("BankA", key); err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	bad.Payload = []byte("tampered")
	b := l.CutBlock([]Transaction{bad})
	if err := l.Append(b); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered endorsement = %v, want ErrBadSignature", err)
	}
}

func TestEndorsedBy(t *testing.T) {
	key, _ := dcrypto.GenerateKey()
	tr := tx("trade", "A", "k", "v")
	if err := tr.Endorse("BankA", key); err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	if !tr.EndorsedBy("BankA") || tr.EndorsedBy("BankB") {
		t.Fatal("EndorsedBy mismatch")
	}
}

func TestCustomValidator(t *testing.T) {
	l := New("trade")
	l.SetValidator(func(tx Transaction) error {
		if tx.Creator == "Mallory" {
			return errors.New("unwelcome creator")
		}
		return nil
	})
	appendBlock(t, l, tx("trade", "BankA", "k", "v"))
	b := l.CutBlock([]Transaction{tx("trade", "Mallory", "k2", "v2")})
	if err := l.Append(b); err == nil {
		t.Fatal("validator rejection must fail Append")
	}
}

func TestDeleteWrite(t *testing.T) {
	l := New("trade")
	appendBlock(t, l, tx("trade", "A", "k", "v"))
	del := Transaction{
		Channel: "trade", Creator: "A",
		Writes:    []Write{{Key: "k", Delete: true}},
		Timestamp: time.Unix(1700000001, 0).UTC(),
	}
	appendBlock(t, l, del)
	if _, err := l.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get deleted = %v, want ErrNotFound", err)
	}
}

func TestVersionTracking(t *testing.T) {
	l := New("trade")
	appendBlock(t, l, tx("trade", "A", "k", "v1"))
	appendBlock(t, l, tx("trade", "A", "k", "v2"))
	got, _ := l.Get("k")
	if got.BlockNum != 1 || string(got.Value) != "v2" {
		t.Fatalf("version = %+v, want block 1 v2", got)
	}
}

func TestPruneAndArchive(t *testing.T) {
	l := New("trade")
	for i := 0; i < 5; i++ {
		appendBlock(t, l, tx("trade", "A", fmt.Sprintf("k%d", i), "v"))
	}
	moved, err := l.Prune(3)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if moved != 3 || l.LiveBlocks() != 2 {
		t.Fatalf("moved=%d live=%d, want 3, 2", moved, l.LiveBlocks())
	}
	// Pruned blocks are gone from the live chain…
	if _, err := l.Block(1); !errors.Is(err, ErrArchived) {
		t.Fatalf("Block(1) = %v, want ErrArchived", err)
	}
	// …but remain available on request (§3.2).
	b, err := l.Archived(1)
	if err != nil || b.Number != 1 {
		t.Fatalf("Archived(1) = %+v, %v", b, err)
	}
	// Live blocks still addressable by absolute number.
	if b, err := l.Block(4); err != nil || b.Number != 4 {
		t.Fatalf("Block(4) = %+v, %v", b, err)
	}
	// World state unaffected by pruning.
	if _, err := l.Get("k0"); err != nil {
		t.Fatalf("Get after prune: %v", err)
	}
	// Chain still verifies end to end.
	if err := l.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain after prune: %v", err)
	}
}

func TestPruneBeyondHeight(t *testing.T) {
	l := New("trade")
	appendBlock(t, l, tx("trade", "A", "k", "v"))
	if _, err := l.Prune(2); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("Prune beyond height = %v, want ErrBadBlock", err)
	}
}

func TestPruneIdempotent(t *testing.T) {
	l := New("trade")
	for i := 0; i < 3; i++ {
		appendBlock(t, l, tx("trade", "A", fmt.Sprintf("k%d", i), "v"))
	}
	if _, err := l.Prune(2); err != nil {
		t.Fatalf("Prune: %v", err)
	}
	moved, err := l.Prune(2)
	if err != nil || moved != 0 {
		t.Fatalf("second Prune = %d, %v; want 0, nil", moved, err)
	}
}

func TestBlockBeyondTip(t *testing.T) {
	l := New("trade")
	if _, err := l.Block(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Block(0) on empty = %v, want ErrNotFound", err)
	}
	if _, err := l.Archived(0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Archived(0) on empty = %v, want ErrNotFound", err)
	}
}

func TestVerifyChain(t *testing.T) {
	l := New("trade")
	for i := 0; i < 4; i++ {
		appendBlock(t, l, tx("trade", "A", fmt.Sprintf("k%d", i), "v"))
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatalf("VerifyChain: %v", err)
	}
}

func TestTxIDStable(t *testing.T) {
	a := tx("trade", "A", "k", "v")
	b := tx("trade", "A", "k", "v")
	if a.ID() != b.ID() {
		t.Fatal("identical txs must share an ID")
	}
	c := tx("trade", "A", "k", "other")
	if a.ID() == c.ID() {
		t.Fatal("different txs must differ in ID")
	}
}

// TestPrimedDigestEqualsDigestFromContent pins both priming entry points to
// the from-content digest, and the memo to the first priming: value copies
// of a primed transaction carry it — a copy whose content then changes still
// reads the primed digest, which is why a primed transaction is immutable —
// and a later prime is a no-op.
func TestPrimedDigestEqualsDigestFromContent(t *testing.T) {
	fresh := tx("trade", "A", "k", "v")
	fresh.Meta = map[string]string{"gateway": "gw", "envelope": "x"}
	want := fresh.Digest()

	primed := fresh
	primed.PrimeDigest()
	carried := fresh
	carried.PrimeDigestWithPayloadSum(dcrypto.Hash(fresh.Payload))
	for name, got := range map[string]Transaction{"PrimeDigest": primed, "PrimeDigestWithPayloadSum": carried} {
		if !got.primed || got.Digest() != want {
			t.Fatalf("%s: primed digest differs from the digest of the content", name)
		}
		cp := got
		cp.Payload = []byte("other")
		if !cp.primed || cp.Digest() != want {
			t.Fatalf("%s: a value copy did not carry the memo", name)
		}
		cp.PrimeDigestWithPayloadSum([32]byte{1})
		cp.PrimeDigest()
		if cp.digestMemo != want {
			t.Fatalf("%s: priming an already primed transaction replaced its memo", name)
		}
	}
	if fresh.Digest(); fresh.primed {
		t.Fatal("Digest primed the transaction it was called on")
	}
}

// TestTransactionFitsItsSizeClass keeps the by-value digest memo from costing
// the orderer's queue a size class: 192 is where the memo and its flag put
// Transaction, and it sets how many transactions fill one 4,096-byte chunk of
// the queue that blocks' Txs are carved from — 21, with the runtime's 8-byte
// header (ordering's pendingChunk).
func TestTransactionFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Transaction{}); size > 192 {
		t.Fatalf("Transaction is %d bytes, want <= 192: past it 21 of them no longer fit "+
			"the orderer's 4,096-byte queue chunk", size)
	}
}

// TestPrimeDigestAllocations pins priming at zero allocations; it was one
// while the memo was a heap *[32]byte.
func TestPrimeDigestAllocations(t *testing.T) {
	base := tx("trade", "A", "k", "v")
	base.Meta = map[string]string{"gateway": "gw", "envelope": "x"}
	sum := dcrypto.Hash(base.Payload)
	var sink [32]byte
	allocs := testing.AllocsPerRun(200, func() {
		cp := base
		cp.PrimeDigestWithPayloadSum(sum)
		sink = cp.Digest()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per priming, want 0", allocs)
	}
	if sink != base.Digest() {
		t.Fatal("primed digest differs from the digest of the content")
	}
}

func TestTxIDIgnoresEndorsements(t *testing.T) {
	key, _ := dcrypto.GenerateKey()
	a := tx("trade", "A", "k", "v")
	id := a.ID()
	if err := a.Endorse("A", key); err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	if a.ID() != id {
		t.Fatal("endorsements must not change the tx ID")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	l := New("trade")
	appendBlock(t, l, tx("trade", "A", "k", "v"))
	got, _ := l.Get("k")
	got.Value[0] = 'X'
	again, _ := l.Get("k")
	if string(again.Value) != "v" {
		t.Fatal("Get must return a defensive copy")
	}
}

func TestGetByPrefix(t *testing.T) {
	l := New("trade")
	appendBlock(t, l,
		tx("trade", "A", "loc/1", "a"),
		tx("trade", "A", "loc/2", "b"),
		tx("trade", "A", "other", "c"),
	)
	got := l.GetByPrefix("loc/")
	if len(got) != 2 || string(got["loc/1"]) != "a" || string(got["loc/2"]) != "b" {
		t.Fatalf("GetByPrefix = %v", got)
	}
	// Returned values are copies.
	got["loc/1"][0] = 'X'
	again := l.GetByPrefix("loc/")
	if string(again["loc/1"]) != "a" {
		t.Fatal("GetByPrefix must return copies")
	}
	if len(l.GetByPrefix("zzz")) != 0 {
		t.Fatal("unmatched prefix must be empty")
	}
}

func TestKeys(t *testing.T) {
	l := New("trade")
	appendBlock(t, l, tx("trade", "A", "a", "1"), tx("trade", "A", "b", "2"))
	if got := len(l.Keys()); got != 2 {
		t.Fatalf("Keys = %d, want 2", got)
	}
}

// TestBlockHashIsHashConcat pins the header hash, which Block.Hash stages
// by hand, to dcrypto.HashConcat(number, PrevHash, DataHash) on random
// headers: a block hashed either way must chain to the same successor.
func TestBlockHashIsHashConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1000; i++ {
		var b Block
		b.Number = rng.Uint64() >> uint(rng.Intn(64))
		rng.Read(b.PrevHash[:])
		rng.Read(b.DataHash[:])
		var num [8]byte
		binary.BigEndian.PutUint64(num[:], b.Number)
		if got, want := b.Hash(), dcrypto.HashConcat(num[:], b.PrevHash[:], b.DataHash[:]); got != want {
			t.Fatalf("block %d: Hash = %x, HashConcat = %x", b.Number, got, want)
		}
	}
}

// TestDataHashBeyondStackStage checks computeDataHash, from the digests and
// from the content, on both sides of the size at which it stops staging
// digests on the stack.
func TestDataHashBeyondStackStage(t *testing.T) {
	var txs []Transaction
	var digests []byte
	for n := 0; n <= 9; n++ {
		want := dcrypto.Hash(digests)
		if computeDataHash(txs, false) != want || ContentDataHash(txs) != want {
			t.Fatalf("%d transactions: data hash is not the hash of their digests", n)
		}
		next := tx("trade", "A", "k", fmt.Sprint(n))
		d := next.Digest()
		txs, digests = append(txs, next), append(digests, d[:]...)
	}
}

func TestHexIDIsID(t *testing.T) {
	a := tx("trade", "A", "k", "v")
	if id := a.HexID(); string(id[:]) != a.ID() || len(a.ID()) != 32 {
		t.Fatalf("HexID = %q, ID = %q", id[:], a.ID())
	}
}

// TestOneTxBlockAllocations pins cutting and hashing a one-transaction
// block (every block on the unbatched path) at zero allocations; it was
// three, the digest staging slice and HashConcat's heap-copied parts, and
// a block is hashed more than once on its way to a backend.
func TestOneTxBlockAllocations(t *testing.T) {
	txs := []Transaction{tx("trade", "A", "k", "v")}
	txs[0].PrimeDigest()
	var prev [32]byte
	allocs := testing.AllocsPerRun(200, func() {
		b := NewBlock(7, prev, txs)
		prev = b.Hash()
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per one-transaction block, want 0", allocs)
	}
}
