package middleware

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// goldenClock is the one instant every clock of the golden fixture reads.
var goldenClock = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// postNote is the name of a scratch stage that annotates a request after the
// encrypt stage sealed it, making the Meta map when there is none — what a
// stage added behind encrypt is free to do. No built-in stage may follow
// encrypt and annotate (attest, zkproof and anoncred are ordered before it).
// It annotates the first request it sees and every second one after, so a
// pipeline that holds it still orders requests with no annotations at all.
const postNote = "postnote"

type postNoteStage struct{ seen atomic.Uint64 }

func (*postNoteStage) Name() string { return postNote }

func (s *postNoteStage) Handle(ctx context.Context, req *Request, next Handler) error {
	if s.seen.Add(1)%2 == 1 {
		if req.Meta == nil {
			req.Meta = make(map[string]string, 1)
		}
		req.Meta["note"] = "after-seal"
	}
	return next(ctx, req)
}

func registerPostNote(t testing.TB) {
	t.Helper()
	err := registerStage(stageDef{
		name:  postNote,
		desc:  "test: annotate after the seal",
		needs: []factRule{{factSealed, "it stands for a stage behind encrypt"}},
		build: func(*params, StageConfig, Env) (Stage, error) { return new(postNoteStage), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { removeStage(postNote) })
}

// goldenFixture is a gateway whose every clock reads goldenClock, over an
// orderer that keeps what it was handed, with alice enrolled and — when the
// pipeline has a session stage — holding a MAC session.
type goldenFixture struct {
	gw      *Gateway
	orderer *tapOrderer
	alice   *principal
	grant   SessionGrant
}

func newGoldenFixture(t *testing.T, name string, cfg Config) *goldenFixture {
	t.Helper()
	now := func() time.Time { return goldenClock }
	ca, err := pki.NewCA("golden-ca", pki.WithClock(now))
	if err != nil {
		t.Fatal(err)
	}
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Enroll("alice", key.Public())
	if err != nil {
		t.Fatal(err)
	}
	fx := &goldenFixture{
		orderer: &tapOrderer{Service: ordering.New("op", ordering.VisibilityEnvelope)},
		alice:   &principal{name: "alice", key: key, cert: cert},
	}
	members := map[string]dcrypto.PublicKey{"alice": key.Public()}
	env := Env{
		CAKey:     ca.PublicKey(),
		Directory: StaticDirectory{"deals": members, "loans": members},
		Log:       audit.NewLog(),
		Now:       now,
	}
	if fx.gw, err = NewGateway(name, cfg, env, fx.orderer); err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	if mgr := fx.gw.Sessions(); mgr != nil {
		hello, err := newSessionHelloAt("alice", cert, key, goldenClock)
		if err != nil {
			t.Fatal(err)
		}
		if fx.grant, err = mgr.Open(hello); err != nil {
			t.Fatalf("open session: %v", err)
		}
	}
	return fx
}

// request builds alice's submission to the deals channel: under her session's
// MAC when the fixture holds one, bare otherwise.
func (fx *goldenFixture) request(t testing.TB, meta map[string]string) *Request {
	t.Helper()
	return fx.requestOn(t, "deals", []byte("trade"), meta)
}

func (fx *goldenFixture) requestOn(t testing.TB, channel string, payload []byte, meta map[string]string) *Request {
	t.Helper()
	req := &Request{Channel: channel, Principal: "alice", Payload: payload, Meta: meta}
	if fx.grant.Token != "" {
		req.SessionToken = fx.grant.Token
		MACRequest(req, fx.grant.MacKey)
	}
	return req
}

// goldenID is the transaction's identifier with its payload — a sealed frame,
// fresh randomness every run — replaced by a fixed one: what is left is what
// the gateway composes (channel, creator, meta, timestamp), hashed from
// content.
func goldenID(tx ledger.Transaction) string {
	return ledger.Transaction{
		Channel: tx.Channel, Creator: tx.Creator, Payload: []byte("golden payload"),
		Meta: tx.Meta, Timestamp: tx.Timestamp,
	}.ID()
}

// TestTransactionDigestsAreGolden pins what Gateway.order composes. Each id
// was computed at the commit before order became the one place a
// transaction's Meta is put together (the encrypt stage wrote its note into
// the request's map then, and order copied that map to add its own): the
// same input must still yield the same transaction, byte for byte, whichever
// of order's branches builds the map. The sealed cases' ids were re-taken when the envelope schemes (a Meta
// value) went from v2 to v3, from v3 to v4, and to v5 when the group vehicle's
// batch note came to name the one scheme; under the older names they are the
// ids of before.
func TestTransactionDigestsAreGolden(t *testing.T) {
	registerPostNote(t)
	session := StageConfig{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}}
	encrypt := StageConfig{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}}
	batch := func(groupseal string) StageConfig {
		return StageConfig{Name: StageBatch, Params: map[string]string{"size": "2", "groupseal": groupseal}}
	}
	sealed := map[string]string{"envelope": EnvelopeScheme, "gateway": "golden-gw"}
	sealedK := map[string]string{"envelope": EnvelopeScheme, "gateway": "golden-gw", "k": "v"}
	sent := func(meta map[string]string) func(*testing.T, *goldenFixture) {
		return func(t *testing.T, fx *goldenFixture) {
			if _, err := frontOf(fx.gw).submit(fx.request(t, meta)); err != nil {
				t.Fatalf("submit: %v", err)
			}
		}
	}
	overWire := func(t *testing.T, fx *goldenFixture) {
		frame, err := EncodeWireRequest(fx.request(t, map[string]string{"k": "v"}), "")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fx.gw.ServeWire(context.Background(), TopicSubmit, frame, ""); err != nil {
			t.Fatalf("ServeWire: %v", err)
		}
	}
	twice := func(submit func(*testing.T, *goldenFixture)) func(*testing.T, *goldenFixture) {
		return func(t *testing.T, fx *goldenFixture) {
			submit(t, fx)
			submit(t, fx)
		}
	}
	cases := []struct {
		name    string
		stages  []StageConfig
		submit  func(*testing.T, *goldenFixture)
		creator string
		meta    map[string]string
		txs     int
		id      string
	}{
		{"session, no meta", []StageConfig{session, encrypt}, sent(nil), "alice", sealed, 1,
			"a43d7324d065a48979d0ad6181a24f06"},
		{"session, caller's meta", []StageConfig{session, encrypt}, sent(map[string]string{"k": "v"}), "alice", sealedK, 1,
			"e502fcfeaf97a152fde41f3788a31f7d"},
		{"session, meta off a binary frame", []StageConfig{session, encrypt}, overWire, "alice", sealedK, 1,
			"e502fcfeaf97a152fde41f3788a31f7d"},
		{"no encrypt stage", []StageConfig{session}, sent(nil), "alice",
			map[string]string{"gateway": "golden-gw"}, 1,
			"e2fc4dc18f7b3045ef582e217211f8fd"},
		{"a note added after the seal", []StageConfig{session, encrypt, {Name: postNote}}, func(t *testing.T, fx *goldenFixture) {
			if _, err := frontOf(fx.gw).submit(fx.request(t, nil)); err != nil {
				t.Fatalf("Submit: %v", err)
			}
		}, "alice", map[string]string{"envelope": EnvelopeScheme, "gateway": "golden-gw", "note": "after-seal"}, 1,
			"79ccbd96272758d75dace09aaefc38ff"},
		{"batch release, member by member", []StageConfig{session, encrypt, batch("off")}, twice(sent(nil)), "alice", sealed, 2,
			"a43d7324d065a48979d0ad6181a24f06"},
		{"group vehicle", []StageConfig{session, encrypt, batch("on")}, twice(sent(nil)), BatchPrincipal,
			map[string]string{MetaBatch: EnvelopeScheme + " n=2", "gateway": "golden-gw"}, 1,
			"cb6f4c0ea56a092bcba938f871b1fa38"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newGoldenFixture(t, "golden-gw", Config{Stages: tc.stages})
			fx.orderer.Subscribe("deals", func(ledger.Block) error { return nil })
			tc.submit(t, fx)
			if len(fx.orderer.submitted) != tc.txs {
				t.Fatalf("%d transactions ordered, want %d", len(fx.orderer.submitted), tc.txs)
			}
			for _, tx := range fx.orderer.submitted {
				if tx.Creator != tc.creator || !tx.Timestamp.Equal(goldenClock) {
					t.Errorf("creator %q at %v, want %q at %v", tx.Creator, tx.Timestamp, tc.creator, goldenClock)
				}
				if !reflect.DeepEqual(tx.Meta, tc.meta) {
					t.Errorf("meta %v, want %v", tx.Meta, tc.meta)
				}
				if got := goldenID(tx); got != tc.id {
					t.Errorf("golden id %s, want %s", got, tc.id)
				}
				if tx.ID() != unprimed(tx).ID() {
					t.Errorf("carried id %s, from content %s", tx.ID(), unprimed(tx).ID())
				}
			}
		})
	}
}

// TestSharedMetaStaysReadOnly drives the two maps NewGateway builds the way
// they are shared: parallel submitters over the binary codec, half their
// frames carrying Meta and half none, a stage behind encrypt annotating every
// second request, and on every channel a subscriber ranging each delivered
// transaction's Meta — under -race, a write to a map some transaction shares
// is a report. Afterwards both maps of both gateways hold what NewGateway put
// there. The second gateway, under another name and with no encrypt stage,
// shows the maps belong to a gateway, not to the package.
func TestSharedMetaStaysReadOnly(t *testing.T) {
	registerPostNote(t)
	session := StageConfig{Name: StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h"}}
	encrypt := StageConfig{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}}
	gateways := []struct {
		name   string
		stages []StageConfig
		sealed bool
	}{
		{"gw-a", []StageConfig{session, encrypt, {Name: postNote}}, true},
		{"gw-b", []StageConfig{session}, false},
	}
	const submitters, each = 4, 64
	channels := []string{"deals", "loans"}
	var wg sync.WaitGroup
	fixtures := make([]*goldenFixture, len(gateways))
	delivered := make([]atomic.Uint64, len(gateways))
	shared := make([]atomic.Uint64, len(gateways))
	for i, gwc := range gateways {
		fx := newGoldenFixture(t, gwc.name, Config{Stages: gwc.stages})
		fixtures[i] = fx
		notes := map[string]string{"gateway": gwc.name}
		if gwc.sealed {
			notes["envelope"] = EnvelopeScheme
		}
		for _, channel := range channels {
			fx.orderer.Subscribe(channel, func(b ledger.Block) error {
				for _, tx := range b.Txs {
					delivered[i].Add(1)
					fixed, own := 0, 0
					for k, v := range tx.Meta {
						switch {
						case notes[k] == v:
							fixed++
						case k == "k" || k == "note":
							own++
						default:
							t.Errorf("%s: delivered meta %v holds %q, which nobody put there", gwc.name, tx.Meta, k)
						}
					}
					if fixed != len(notes) {
						t.Errorf("%s: delivered meta %v, want all of %v in it", gwc.name, tx.Meta, notes)
					}
					if own == 0 {
						shared[i].Add(1)
					}
				}
				return nil
			})
		}
		for s := 0; s < submitters; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < each; n++ {
					var meta map[string]string
					if (s+n)%2 == 0 && gwc.sealed {
						meta = map[string]string{"k": fmt.Sprint(n)}
					}
					req := fx.requestOn(t, channels[n%len(channels)], []byte(fmt.Sprintf("trade %d/%d", s, n)), meta)
					frame, err := EncodeWireRequest(req, "")
					if err != nil {
						t.Error(err)
						return
					}
					if _, err := fx.gw.ServeWire(context.Background(), TopicSubmit, frame, ""); err != nil {
						t.Errorf("%s: ServeWire: %v", gwc.name, err)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	for i, gwc := range gateways {
		gw := fixtures[i].gw
		if got := delivered[i].Load(); got != submitters*each {
			t.Errorf("%s: %d transactions delivered, want %d", gwc.name, got, submitters*each)
		}
		if shared[i].Load() == 0 {
			t.Errorf("%s ordered no transaction without annotations: the shared maps were not exercised", gwc.name)
		}
		if want := map[string]string{"gateway": gwc.name}; !reflect.DeepEqual(gw.metaPlain, want) {
			t.Errorf("%s: metaPlain is %v, want %v", gwc.name, gw.metaPlain, want)
		}
		if want := map[string]string{"envelope": EnvelopeScheme, "gateway": gwc.name}; !reflect.DeepEqual(gw.metaSealed, want) {
			t.Errorf("%s: metaSealed is %v, want %v", gwc.name, gw.metaSealed, want)
		}
	}
}

// hostileMetaFrame is a well-formed binary request frame of size bytes up to
// its meta count, which claims one entry for every perEntry of the bytes that
// remain; those are 0xff, so the first entry fails to decode.
func hostileMetaFrame(size, perEntry int) []byte {
	frame := []byte{binaryMagic, binaryKindRequest, 5, 'd', 'e', 'a', 'l', 's', 5, 'a', 'l', 'i', 'c', 'e',
		0, 0, 0, 0, 0, 0, // backend, payload, session, sig, mac, cert: all empty
		0} // trace id
	// Every count this is called with takes a three-byte varint.
	remaining := size - len(frame) - 3
	frame = binary.AppendUvarint(frame, uint64(remaining/perEntry))
	for len(frame) < size {
		frame = append(frame, 0xff)
	}
	return frame
}

// hostileMetaFrames are two frames as large as the edge lets in (the value of
// netedge.DefaultMaxFrame): one whose meta count is all the bytes that
// remain, one whose count is the most the decoder's own bound lets through.
func hostileMetaFrames() [][]byte {
	const maxFrame = 1 << 20
	return [][]byte{hostileMetaFrame(maxFrame, 1), hostileMetaFrame(maxFrame, 2)}
}

// TestHostileMetaCountSizesNoMap: the meta count of a binary frame is read
// before any session or MAC check, so it must not size an allocation. A 1 MiB
// frame claiming a million entries used to make the decoder allocate 84 MB
// for the map before it failed on the first entry.
func TestHostileMetaCountSizesNoMap(t *testing.T) {
	fx := newGoldenFixture(t, "gw", Config{
		Stages: []StageConfig{{Name: StageSession}},
	})
	for i, frame := range hostileMetaFrames() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := fx.gw.ServeWire(context.Background(), TopicSubmit, frame, "")
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("frame %d: accepted", i)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("frame %d: a %d-byte frame made the gateway allocate %d bytes before it was refused (%v)", i, len(frame), got, err)
		}
	}
}
