package middleware

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/telemetry"
)

// poisonRecycled makes every last drop fill the request with garbage instead
// of pooling it, until the test ends, and returns how many requests came back
// that way. A holder that kept a request without a hold then reads the
// garbage (and, under -race, races with the write).
func poisonRecycled(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	poisonDropped = func(r *Request) {
		r.Channel, r.Principal = "poisoned-channel", "poisoned-principal"
		r.Payload = []byte("poisoned payload, not anyone's submission")
		r.MAC = []byte("poisoned mac")
		for i := range r.digestMemo {
			r.digestMemo[i] = 0xEE
		}
		n.Add(1)
	}
	t.Cleanup(func() { poisonDropped = nil })
	return &n
}

// TestRecycledRequestCarriesNothingOver: the last drop of a request that
// carries everything a wire submission can leave in one — a payload and MAC
// aliasing the read buffer, a token, the session record the decoder hands
// the session stage, Meta, a trace, a group key, both memos — zeroes every
// field, the hold count included. A hold on a caller's own request, and its
// drop, change nothing.
func TestRecycledRequestCarriesNothingOver(t *testing.T) {
	buf := []byte("payload and mac, both aliasing one read buffer")
	r := borrowRequest()
	r.Channel, r.Principal, r.Backend = "deals", "alice", "fabric"
	r.Payload, r.MAC = buf[:20], buf[20:]
	r.SessionToken, r.TraceID, r.TransportID = "token", 7, "tcp:1"
	r.Meta = map[string]string{"k": "v"}
	r.authenticated, r.encrypted, r.enveloped, r.untimed = true, true, true, true
	r.payloadSum()
	r.digestMemo, r.digestSet = r.Digest(), true
	r.trace = &telemetry.Trace{ID: 1}
	r.downstreamNanos, r.nowStamp = 5, time.Second
	r.session = &session{principal: "alice"}
	r.groupKey = &channelKey{}
	r.hold()
	r.drop()
	if reflect.ValueOf(r).Elem().IsZero() {
		t.Fatal("a drop that was not the last recycled the request")
	}
	r.drop()
	if v := reflect.ValueOf(r).Elem(); !v.IsZero() {
		for i := 0; i < v.NumField(); i++ {
			if !v.Field(i).IsZero() {
				t.Errorf("recycled request keeps its predecessor's %s", v.Type().Field(i).Name)
			}
		}
	}

	own := Request{Channel: "deals", Payload: buf}
	own.hold()
	own.drop()
	own.drop()
	if own.holds != 0 || own.Channel != "deals" {
		t.Fatalf("hold and drop changed a caller's own request: holds %d, channel %q", own.holds, own.Channel)
	}
}

// recycleFixture is what TestNoStageUsesARequestAfterItsRelease submits: for
// every kind of wire submission, recycleFrames frames of plain payloads and as
// many of aggregands, and what each frame must come back as.
type recycleFixture struct {
	frames [3][2][]recycleFrame // [kind][plain, aggregand]
	alice  *principal
	env    func() Env
	sk     *paillier.PrivateKey
}

type recycleFrame struct {
	wire      []byte
	id        string // the reply an accepted submission gets
	principal string // the creator of its transaction, outside a group
	payload   string // its plaintext payload
	value     int64  // its aggregand's value
}

// recycleFrames is how many frames of each kind every pipeline is sent: five
// leave a group part-filled for Flush at batch sizes 2 and 4 and aggregate
// sizes 2 and 3 whatever number of kinds a pipeline accepts.
const recycleFrames = 5

func newRecycleFixture(t *testing.T) *recycleFixture {
	ca, ps := enroll(t, "alice", "bob")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()}}
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	grant := openSession(t, mgr, ps["alice"])
	attrs := []string{"role=member"}
	issuer := anoncred.NewIssuer("memo-issuer")
	credKey, err := issuer.RegisterAttributeSet(attrs)
	if err != nil {
		t.Fatal(err)
	}
	wallet, err := anoncred.NewWallet()
	if err != nil {
		t.Fatal(err)
	}
	if err := wallet.RequestTokens(issuer, attrs, recycleFrames); err != nil {
		t.Fatal(err)
	}
	collector, err := paillier.GenerateKey(512)
	if err != nil {
		t.Fatal(err)
	}
	// A presentation is one-show per gateway and every gateway is fresh, so
	// the anonymous kind's frames carry one each and serve every run.
	var presentations [recycleFrames]*Request
	for i := range presentations {
		presentations[i] = &Request{}
		if _, err := AttachPresentation(presentations[i], wallet, attrs, "memo-scope"); err != nil {
			t.Fatal(err)
		}
	}
	fx := &recycleFixture{alice: ps["alice"], sk: collector}
	fx.env = func() Env {
		return Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog(), Sessions: mgr,
			AnonCredKey: credKey, Aggregator: &collector.PublicKey}
	}
	for _, kind := range []wireKind{kindPlain, kindSession, kindAnon} {
		for agg := 0; agg < 2; agg++ {
			for i := 0; i < recycleFrames; i++ {
				value := int64(100*int(kind) + 10*agg + i + 1)
				payload := []byte(fmt.Sprintf("trade %d of kind %d", i, kind))
				if agg == 1 {
					if payload, err = EncodeAggregand(&collector.PublicKey, big.NewInt(value)); err != nil {
						t.Fatal(err)
					}
				}
				req := &Request{Channel: "deals", Principal: "alice", Payload: payload}
				switch kind {
				case kindSession:
					req.SessionToken = grant.Token
					MACRequest(req, grant.MacKey)
				case kindAnon:
					req.Principal, req.Meta = presentations[i].Principal, presentations[i].Meta
				}
				wire, err := EncodeWireRequest(req, "")
				if err != nil {
					t.Fatal(err)
				}
				fx.frames[kind][agg] = append(fx.frames[kind][agg], recycleFrame{
					wire: wire, id: req.id(), principal: req.Principal, payload: string(payload), value: value})
			}
		}
	}
	return fx
}

// resized returns the pipeline with its holding stage at the matrix's second
// size: batch(size=4), with group sealing as it was, or aggregate(size=3); nil
// for a pipeline without one.
func resized(stages []StageConfig) []StageConfig {
	out := append([]StageConfig(nil), stages...)
	last := &out[len(out)-1]
	switch last.Name {
	case StageBatch:
		params := map[string]string{"size": "4"}
		if last.Params["groupseal"] == "on" {
			params["groupseal"] = "on"
		}
		last.Params = params
	case StageAggregate:
		last.Params = map[string]string{"size": "3"}
	default:
		return nil
	}
	return out
}

// TestNoStageUsesARequestAfterItsRelease runs every pipeline the ordering rules
// admit over memoStages, and each with a holding stage once more at the other
// size (batch(size=4), batch(size=4,groupseal=on), aggregate(size=3)), with
// four goroutines submitting every kind of frame at once and every request
// poisoned, not pooled, at its last drop. Submissions go through AppendWire,
// as the edge makes them, each after a prefix of its own; the plain kind's go
// through ServeWire. Every reply must be the prefix, untouched, and the
// frame's ID after it — also once every group has been released on some other
// goroutine — every ordered transaction must carry the channel, creator and
// payload that were submitted, each submission exactly once, and every
// request the gateway borrowed must come back, a group release's vehicle
// among them. A stage that used a request
// after letting go of it delivers the poison, or races with it under -race.
func TestNoStageUsesARequestAfterItsRelease(t *testing.T) {
	fx := newRecycleFixture(t)
	recycled := poisonRecycled(t)
	var matrix [][]StageConfig
	for _, stages := range admittedPipelines() {
		matrix = append(matrix, stages)
		if other := resized(stages); other != nil {
			matrix = append(matrix, other)
		}
	}
	garbage := []byte{binaryMagic, binaryKindRequest, 0xFF}
	for _, stages := range matrix {
		name := pipelineString(stages)
		if size := stages[len(stages)-1].Params["size"]; size != "" {
			name += "(size=" + size + ")"
		}
		gw, err := NewGateway("gw", Config{Stages: stages}, fx.env(), ordering.New("op", ordering.VisibilityEnvelope))
		if err != nil {
			t.Fatalf("%s: NewGateway: %v", name, err)
		}
		var mu sync.Mutex
		var ordered []ledger.Transaction
		gw.Bind("deals", backendFunc{name: "sink", commit: func(b ledger.Block) error {
			mu.Lock()
			ordered = append(ordered, b.Txs...)
			mu.Unlock()
			return nil
		}})

		agg := 0
		if hasStage(stages, StageAggregate) {
			agg = 1
		}
		type job struct {
			f      *recycleFrame
			accept bool
			serve  bool   // through ServeWire, not AppendWire
			prefix string // what AppendWire's dst holds
			reply  []byte
			err    error
		}
		var jobs []job
		for _, k := range []wireKind{kindPlain, kindSession, kindAnon} {
			for i := range fx.frames[k][agg] {
				jobs = append(jobs, job{f: &fx.frames[k][agg][i], accept: k.accepts(stages), serve: k == kindPlain})
			}
		}
		jobs = append(jobs, job{f: &recycleFrame{wire: garbage}})
		for i := range jobs {
			if !jobs[i].serve {
				jobs[i].prefix = fmt.Sprintf("job %d of %s|", i, name)
			}
		}
		// checkReply reports a reply that is not the job's prefix followed by
		// its frame's ID, or by nothing when the frame was refused.
		checkReply := func(j *job) {
			want := j.prefix
			if j.err == nil {
				want += j.f.id
			}
			if string(j.reply) != want {
				t.Errorf("%s: reply %q to the frame whose ID is %q (prefix %q, err %v)", name, j.reply, j.f.id, j.prefix, j.err)
			}
		}
		before := recycled.Load()
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					j := &jobs[i]
					if j.serve {
						j.reply, j.err = gw.ServeWire(context.Background(), TopicSubmit, j.f.wire, "")
					} else {
						// Room to spare, so the ID lands in the prefix's array.
						dst := append(make([]byte, 0, len(j.prefix)+64), j.prefix...)
						j.reply, j.err = gw.AppendWire(context.Background(), dst, TopicSubmit, j.f.wire, "")
					}
					if (j.err == nil) != j.accept {
						t.Errorf("%s: frame %q accepted=%v, want %v (%v)", name, j.f.id, j.err == nil, j.accept, j.err)
					}
					checkReply(j)
				}
			}()
		}
		wg.Wait()
		if err := gw.Flush(context.Background()); err != nil {
			t.Fatalf("%s: Flush: %v", name, err)
		}
		gw.Close()
		// Every group is released and every request recycled by now: a reply
		// that still aliased one of them would read the poison.
		for i := range jobs {
			checkReply(&jobs[i])
		}
		// The gateway borrowed one request per frame, and the batch stage one
		// per sealed group, its release vehicle.
		borrowed := int64(len(jobs)) + int64(gw.Stats().BatchGroupsSealed)
		if got := recycled.Load() - before; got != borrowed {
			t.Fatalf("%s: %d of the %d requests the gateway borrowed came back", name, got, borrowed)
		}
		var want []*recycleFrame
		for _, j := range jobs {
			if j.accept {
				want = append(want, j.f)
			}
		}
		if err := fx.checkOrdered(ordered, want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	t.Logf("%d pipelines", len(matrix))
}

// checkOrdered reports whether the transactions carry exactly the submissions
// in want: each ordered once, on its channel, under its creator (or a group's
// or an aggregate's), with its payload (sealed for alice, or summed).
func (fx *recycleFixture) checkOrdered(txs []ledger.Transaction, want []*recycleFrame) error {
	pending := make(map[string]*recycleFrame, len(want))
	var wantSum int64
	for _, f := range want {
		pending[f.payload] = f
		wantSum += f.value
	}
	take := func(payload []byte, creator string) error {
		f := pending[string(payload)]
		if f == nil {
			return fmt.Errorf("ordered a payload nobody submitted, or twice: %.40q", payload)
		}
		if creator != "" && creator != f.principal {
			return fmt.Errorf("payload %q ordered under %q, submitted by %q", payload, creator, f.principal)
		}
		delete(pending, string(payload))
		return nil
	}
	var aggregated int
	sum := new(big.Int)
	for _, tx := range txs {
		if tx.Channel != "deals" {
			return fmt.Errorf("ordered on channel %q", tx.Channel)
		}
		switch {
		case tx.Creator == BatchPrincipal:
			genv, err := ParseEnvelope(tx.Payload)
			if err != nil {
				return fmt.Errorf("group: %v", err)
			}
			members, err := OpenGroupEnvelope(genv, "alice", fx.alice.key)
			if err != nil {
				return fmt.Errorf("group: %v", err)
			}
			for _, p := range members {
				if err := take(p, ""); err != nil {
					return err
				}
			}
		case tx.Creator == AggregatePrincipal:
			total, err := DecryptAggregate(fx.sk, tx.Payload)
			if err != nil {
				return fmt.Errorf("aggregate: %v", err)
			}
			var n int
			if _, err := fmt.Sscanf(tx.Meta[MetaAggregate], aggregandScheme+" n=%d", &n); err != nil {
				return fmt.Errorf("aggregate meta %q: %v", tx.Meta[MetaAggregate], err)
			}
			aggregated += n
			sum.Add(sum, total)
		case tx.Meta["envelope"] != "":
			env, err := ParseEnvelope(tx.Payload)
			if err != nil {
				return fmt.Errorf("envelope: %v", err)
			}
			plain, err := OpenEnvelope(env, "alice", fx.alice.key)
			if err != nil {
				return fmt.Errorf("envelope: %v", err)
			}
			if err := take(plain, tx.Creator); err != nil {
				return err
			}
		default:
			if err := take(tx.Payload, tx.Creator); err != nil {
				return err
			}
		}
	}
	if aggregated > 0 || sum.Sign() != 0 {
		if aggregated != len(want) || sum.Cmp(big.NewInt(wantSum)) != 0 {
			return fmt.Errorf("aggregates of %d contributions summing to %v, want %d summing to %d", aggregated, sum, len(want), wantSum)
		}
		return nil
	}
	if len(pending) > 0 {
		var missing []string
		for p := range pending {
			missing = append(missing, p)
		}
		return fmt.Errorf("submissions never ordered: %s", strings.Join(missing, "; "))
	}
	return nil
}

// TestDecodeFailureReturnsTheRequest: a frame that does not decode still
// gives back the request it was decoded into.
func TestDecodeFailureReturnsTheRequest(t *testing.T) {
	recycled := poisonRecycled(t)
	gw, _, _, _ := fastpathGateway(t, "alice")
	if _, err := gw.ServeWire(context.Background(), TopicSubmit, []byte{binaryMagic, binaryKindRequest, 0x01}, ""); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("cut frame: %v, want ErrBadFrame", err)
	}
	if n := recycled.Load(); n != 1 {
		t.Fatalf("%d requests came back from one refused frame, want 1", n)
	}
}
