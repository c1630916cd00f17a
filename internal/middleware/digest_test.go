package middleware

import (
	"bytes"
	"context"
	"crypto/sha256"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
)

// tapOrderer forwards to a solo ordering service, keeping what the gateway
// handed it.
type tapOrderer struct {
	*ordering.Service
	mu        sync.Mutex // submitters may be parallel; read submitted once they are done
	submitted []ledger.Transaction
}

func (o *tapOrderer) Submit(tx ledger.Transaction) error {
	o.mu.Lock()
	o.submitted = append(o.submitted, tx)
	o.mu.Unlock()
	return o.Service.Submit(tx)
}

// unprimed rebuilds a transaction from its exported fields alone, so its
// digest is computed from content.
func unprimed(tx ledger.Transaction) ledger.Transaction {
	return ledger.Transaction{
		Channel: tx.Channel, Creator: tx.Creator, Contract: tx.Contract,
		Payload: tx.Payload, Writes: tx.Writes, Meta: tx.Meta,
		Timestamp: tx.Timestamp, Endorsements: tx.Endorsements,
	}
}

// TestDigestCarriedEqualsDigestFromContent is the differential for the
// hash-once contract: on every pipeline shape, the digest a transaction
// carries to its subscriber (primed by Gateway.order from the sum the chain
// held) equals the digest of the same content hashed from scratch, any
// flipped payload byte changes that digest, and what the audit stage logged
// is the request ID recomputed from the delivered payload.
func TestDigestCarriedEqualsDigestFromContent(t *testing.T) {
	const observer = "gateway-op"
	stages := func(encParams map[string]string, tail ...StageConfig) []StageConfig {
		return append([]StageConfig{
			{Name: StageAuthn},
			{Name: StageEncrypt, Params: encParams},
			{Name: StageAudit, Params: map[string]string{"observer": observer}},
		}, tail...)
	}
	cached := map[string]string{"keyttl": "1h"}
	pipelines := []struct {
		name    string
		cfg     Config
		grouped bool
	}{
		// The suffix is Config.Codec, whose two accepted values mean the
		// same thing.
		{"single/binary", Config{Stages: stages(cached), Codec: CodecBinary}, false},
		{"single/default", Config{Stages: stages(cached)}, false},
		{"uncached/binary", Config{Stages: stages(nil), Codec: CodecBinary}, false},
		{"uncached/default", Config{Stages: stages(nil)}, false},
		{"groupseal/binary", Config{Stages: stages(cached, StageConfig{Name: StageBatch,
			Params: map[string]string{"size": "2", "groupseal": "on"}}), Codec: CodecBinary}, true},
	}
	for _, pl := range pipelines {
		t.Run(pl.name, func(t *testing.T) {
			ca, ps := enroll(t, "alice", "bob")
			dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()}}
			log := audit.NewHistory()
			orderer := &tapOrderer{Service: ordering.New("op", ordering.VisibilityEnvelope)}
			gw, err := NewGateway("gw", pl.cfg, Env{CAKey: ca.PublicKey(), Directory: dir, Log: log}, orderer)
			if err != nil {
				t.Fatalf("NewGateway: %v", err)
			}
			var delivered []ledger.Transaction
			gw.Bind("deals", backendFunc{name: "sink", commit: func(b ledger.Block) error {
				delivered = append(delivered, b.Txs...)
				return nil
			}})
			payloads := []string{"10 tons of steel", "20 tons of copper"}
			for _, p := range payloads {
				if _, err := frontOf(gw).submit(signedRequest(t, ps["alice"], "deals", []byte(p))); err != nil {
					t.Fatalf("Submit: %v", err)
				}
			}
			if err := gw.Flush(context.Background()); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			want := 2
			if pl.grouped {
				want = 1 // both submissions in one group envelope
			}
			if len(delivered) != want {
				t.Fatalf("delivered %d transactions, want %d", len(delivered), want)
			}

			// The transaction arrives at the orderer primed: a primed digest
			// is a memo read, so it does not follow a change to the copy.
			for _, tx := range orderer.submitted {
				carried := tx.Digest()
				tx.Payload = []byte("not what was primed")
				if tx.Digest() != carried {
					t.Fatalf("Gateway.order submitted an unprimed transaction")
				}
			}

			var wantAudit []string
			for i, tx := range delivered {
				fresh := unprimed(tx)
				if tx.Digest() != fresh.Digest() || tx.ID() != fresh.ID() {
					t.Fatalf("carried digest %s differs from the digest of the delivered content %s", tx.ID(), fresh.ID())
				}
				asRequest := func(principal string, payload []byte) *Request {
					return &Request{Channel: tx.Channel, Principal: principal, Payload: payload}
				}
				// Tamper: every payload byte is bound by both digests.
				sealedID := asRequest(tx.Creator, tx.Payload).Digest()
				for i := range tx.Payload {
					flipped := append([]byte(nil), tx.Payload...)
					flipped[i] ^= 0x01
					fresh.Payload = flipped
					if fresh.Digest() == tx.Digest() {
						t.Fatalf("flipping payload byte %d left the transaction digest unchanged", i)
					}
					if asRequest(tx.Creator, flipped).Digest() == sealedID {
						t.Fatalf("flipping payload byte %d left the request digest unchanged", i)
					}
				}
				if !pl.grouped {
					wantAudit = append(wantAudit, asRequest(tx.Creator, tx.Payload).id())
					if !bytes.HasPrefix(tx.Payload, []byte{binaryMagic, binaryKindEnvelope}) {
						t.Fatalf("delivered payload starts % x, want an envelope frame", tx.Payload[:2])
					}
					env, err := ParseEnvelope(tx.Payload)
					if err != nil {
						t.Fatal(err)
					}
					plain, err := OpenEnvelope(env, "bob", ps["bob"].key)
					if err != nil || string(plain) != payloads[i] {
						t.Fatalf("OpenEnvelope = %q, %v; want %q", plain, err, payloads[i])
					}
					continue
				}
				// audit sits before batch: it saw each member's plaintext.
				genv, err := ParseEnvelope(tx.Payload)
				if err != nil {
					t.Fatal(err)
				}
				members, err := OpenGroupEnvelope(genv, "bob", ps["bob"].key)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range members {
					wantAudit = append(wantAudit, asRequest("alice", m).id())
				}
			}
			got := log.ItemsSeen(observer, audit.ClassTxMetadata)
			sort.Strings(got)
			sort.Strings(wantAudit)
			if len(got) != len(wantAudit) {
				t.Fatalf("audit logged %d items, want %d", len(got), len(wantAudit))
			}
			for i := range got {
				if got[i] != wantAudit[i] {
					t.Fatalf("audit item %s is not a request ID recomputed from the delivered payload (want %s)", got[i], wantAudit[i])
				}
			}
		})
	}
}

// TestEncryptHandsDownstreamAMemoisedSum pins the per-submission cost: when
// the encrypt stage passes a sealed request on, SHA-256 of the new payload
// is already memoised — resumed from the key's hash state, never computed
// over the frame — so audit, the terminal handler and the ledger digest all
// reuse it. The uncached stage rides the same seal, so it holds too.
func TestEncryptHandsDownstreamAMemoisedSum(t *testing.T) {
	_, ps := enroll(t, "alice", "bob")
	dir := NewSyncDirectory()
	addMembers(dir, "deals", map[string]dcrypto.PublicKey{"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()})
	cached, err := newCachedEncrypt(dir, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	uncached, err := newEncrypt(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, enc := range map[string]*encryptStage{"cached": cached, "uncached": uncached} {
		req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("10 tons of steel"), authenticated: true}
		plain := req.Digest() // leaves a memo of the plaintext behind
		called := false
		err = enc.Handle(context.Background(), req, func(_ context.Context, req *Request) error {
			called = true
			if req.sumOf != &req.Payload[0] || req.sumLen != len(req.Payload) {
				t.Errorf("%s: payload sum not memoised for the sealed payload", name)
			}
			if req.sum != sha256.Sum256(req.Payload) {
				t.Errorf("%s: memoised payload sum is not SHA-256 of the sealed payload", name)
			}
			return nil
		})
		if err != nil || !called {
			t.Fatalf("%s: Handle: err=%v, downstream called=%v", name, err, called)
		}
		if req.Digest() == plain {
			t.Fatalf("%s: request digest did not follow the payload to its sealed form", name)
		}
	}
}

// TestPayloadSumFollowsPayload is the stale-memo check: the memo is keyed
// to the payload's backing array and length, so replacing or re-slicing
// Payload after a digest was taken yields the digest of the new bytes.
func TestPayloadSumFollowsPayload(t *testing.T) {
	fresh := func(p []byte) [32]byte {
		return (&Request{Channel: "deals", Principal: "alice", Payload: p}).Digest()
	}
	a := []byte("the first payload, long enough to re-slice")
	req := &Request{Channel: "deals", Principal: "alice", Payload: a}
	first := req.Digest()
	cases := map[string][]byte{
		"replaced":          []byte("a different payload of any length"),
		"replaced same len": append([]byte(nil), a...),
		"shortened":         a[:len(a)-1],
		"advanced":          a[1:],
		"emptied":           a[:0],
		"nil":               nil,
		"restored":          a,
	}
	for name, p := range cases {
		req.Payload = p
		if got := req.Digest(); got != fresh(p) {
			t.Errorf("%s: digest after reassignment is not the digest of the new payload", name)
		}
		req.Payload = a
		if req.Digest() != first {
			t.Errorf("%s: digest after restoring the payload differs from the first", name)
		}
	}
	if n := testing.AllocsPerRun(100, func() { req.Payload = a[1:]; req.Digest(); req.Payload = a; req.Digest() }); n != 0 {
		t.Errorf("Digest allocates %.0f times per miss pair, want 0", n)
	}
}

// TestRequestFitsItsSizeClass keeps the memos and the hold count from costing
// an allocation size class. ServeWire recycles its requests, but the pool
// drops what it holds over two garbage collections and refills by
// allocating, and every in-process caller allocates its own: 320 bytes is
// what the struct needs since the reply ID left it, and the next class, 352,
// is +32 B on each of those. The certificate is held by pointer: by value its 136 bytes put
// the struct in the 480-byte class, although only a sessionless request
// carries one.
func TestRequestFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 320 {
		t.Fatalf("Request is %d bytes, want <= 320: the memos and the hold count put it in the 320-byte size class, "+
			"and the next, 352, is +32 B on every request the pool or a caller allocates", size)
	}
}
