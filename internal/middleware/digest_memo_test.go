package middleware

import (
	"context"
	"errors"
	"math/big"
	"slices"
	"testing"
	"time"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
)

// memoCheck is a stage asserting, wherever it stands, that a request whose
// digest memo is in force carries the digest of its content recomputed from
// scratch. It reads the memo without calling digest or Digest on the request,
// which would refresh the payload memo and so change what later stages see.
type memoCheck struct {
	t       *testing.T
	inForce *int
}

func (memoCheck) Name() string { return "memocheck" }

func (c memoCheck) Handle(ctx context.Context, req *Request, next Handler) error {
	if req.digestMemoed() {
		*c.inForce++
		fresh := Request{Channel: req.Channel, Principal: req.Principal, Backend: req.Backend, Payload: req.Payload}
		if req.digestMemo != fresh.Digest() {
			c.t.Errorf("the digest memo is not the digest of the request's content")
		}
	}
	return next(ctx, req)
}

// memoStages are the stages the digest memo crosses or must be dropped by, in
// the form the enumeration below configures them: session (MAC), authn,
// encrypt, audit, anoncred and aggregate read or rewrite what the digest
// covers, and batch holds requests past Handle.
var memoStages = []StageConfig{
	{Name: StageSession},
	{Name: StageAuthn},
	{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
	{Name: StageAudit, Params: map[string]string{"observer": "gateway-op"}},
	{Name: StageAnonCred, Params: map[string]string{"attrs": "role=member", "scope": "memo-scope", "require": "off"}},
	{Name: StageAggregate, Params: map[string]string{"size": "2"}},
	{Name: StageBatch, Params: map[string]string{"size": "2"}},
}

// admittedPipelines returns every ordering of every non-empty subset of
// memoStages that Config.validate admits, with batch once in plain and once in
// group-seal mode wherever the pipeline could seal groups.
func admittedPipelines() [][]StageConfig {
	var out [][]StageConfig
	used := make([]bool, len(memoStages))
	var walk func(prefix []StageConfig)
	walk = func(prefix []StageConfig) {
		if len(prefix) > 0 && (Config{Stages: prefix}).validate() == nil {
			out = append(out, append([]StageConfig(nil), prefix...))
			if last := prefix[len(prefix)-1]; last.Name == StageBatch && hasStage(prefix, StageEncrypt) {
				sealed := append([]StageConfig(nil), prefix...)
				sealed[len(sealed)-1] = StageConfig{Name: StageBatch, Params: map[string]string{"size": "2", "groupseal": "on"}}
				out = append(out, sealed)
			}
		}
		for i, sc := range memoStages {
			if !used[i] {
				used[i] = true
				walk(append(prefix, sc))
				used[i] = false
			}
		}
	}
	walk(nil)
	return out
}

func hasStage(stages []StageConfig, name string) bool {
	for _, sc := range stages {
		if sc.Name == name {
			return true
		}
	}
	return false
}

// wireKind is one way a client authenticates a submission.
type wireKind int

const (
	kindPlain   wireKind = iota // nothing: accepted only where nothing checks
	kindCert                    // certificate and signature, for authn
	kindSession                 // session token and MAC, for the session stage
	kindAnon                    // anonymous-credential presentation, for anoncred
)

// accepts walks a pipeline the way its stages treat a submission of kind k:
// only the stage that understands k authenticates it, and authn and encrypt
// refuse what nothing upstream authenticated.
func (k wireKind) accepts(stages []StageConfig) bool {
	authenticated := false
	for _, sc := range stages {
		switch sc.Name {
		case StageSession:
			authenticated = authenticated || k == kindSession
		case StageAnonCred:
			authenticated = authenticated || k == kindAnon
		case StageAuthn:
			if !authenticated && k != kindCert {
				return false
			}
			authenticated = true
		case StageEncrypt:
			if !authenticated {
				return false
			}
		}
	}
	return true
}

// TestDigestMemoUnderEveryAdmittedPipeline puts a memoCheck at every position
// of every pipeline the ordering rules admit over memoStages, and sends every
// kind of wire submission through ServeWire twice (batch and aggregate fill
// their groups of two). Wherever the memo is in force it must be the digest of
// the request's content; every kind is accepted exactly where a walk of the
// pipeline says it is, and every accepted submission is answered with its ID.
func TestDigestMemoUnderEveryAdmittedPipeline(t *testing.T) {
	ca, ps := enroll(t, "alice", "bob")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()}}
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil, WithRequestAuth(AuthMAC))
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
	if err := wallet.RequestTokens(issuer, attrs, 2); err != nil {
		t.Fatal(err)
	}
	collector, err := paillier.GenerateKey(512)
	if err != nil {
		t.Fatal(err)
	}
	aggregand, err := EncodeAggregand(&collector.PublicKey, big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}

	// Two frames of each kind, once with a plain payload and once with an
	// aggregand. A presentation is one-show per gateway, so the kind's two
	// submissions carry two; a gateway is fresh for every run, so the frames
	// serve every run.
	var presentations [2]*Request
	for i := range presentations {
		presentations[i] = &Request{}
		if _, err := AttachPresentation(presentations[i], wallet, attrs, "memo-scope"); err != nil {
			t.Fatal(err)
		}
	}
	frames := func(kind wireKind, payload []byte) [2][]byte {
		var out [2][]byte
		for i := range out {
			req := &Request{Channel: "deals", Principal: "alice", Payload: payload}
			switch kind {
			case kindCert:
				req = signedRequest(t, ps["alice"], "deals", payload)
			case kindSession:
				req.SessionToken = grant.Token
				MACRequest(req, grant.MacKey)
			case kindAnon:
				req.Principal, req.Meta = presentations[i].Principal, presentations[i].Meta
			}
			b, err := EncodeWireRequest(req, "")
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	kinds := []wireKind{kindPlain, kindCert, kindSession, kindAnon}
	var plainFrames, aggFrames [4][2][]byte
	for _, k := range kinds {
		plainFrames[k], aggFrames[k] = frames(k, []byte("10 tons of steel")), frames(k, aggregand)
	}

	ctx := context.Background()
	pipelines := admittedPipelines()
	var runs, accepted, inForce, inForceDownstream int
	for _, stages := range pipelines {
		sent := &plainFrames
		if hasStage(stages, StageAggregate) {
			sent = &aggFrames
		}
		for pos := 0; pos <= len(stages); pos++ {
			env := Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog(), Sessions: mgr,
				AnonCredKey: credKey, Aggregator: &collector.PublicKey}
			gw, err := NewGateway("gw", Config{Stages: stages}, env, ordering.New("op", ordering.VisibilityEnvelope))
			if err != nil {
				t.Fatalf("%s: NewGateway: %v", pipelineString(stages), err)
			}
			gw.Bind("deals", backendFunc{name: "sink", commit: func(ledger.Block) error { return nil }})
			before := inForce
			check := memoCheck{t: t, inForce: &inForce}
			gw.chain = NewChain(gw.order, slices.Insert(slices.Clone(gw.chain.stages), pos, Stage(check))...)
			for _, k := range kinds {
				want := k.accepts(stages)
				for _, frame := range sent[k] {
					reply, err := gw.ServeWire(ctx, TopicSubmit, frame, "")
					if (err == nil) != want {
						t.Fatalf("%s, check at %d: kind %d accepted=%v, want %v (%v)", pipelineString(stages), pos, k, err == nil, want, err)
					}
					if err != nil {
						continue
					}
					accepted++
					var fresh Request
					if err := decodeRequestBinary(frame, &fresh, nil); err != nil || string(reply) != fresh.ID() {
						t.Fatalf("%s: reply %q is not the submitted frame's ID %q (%v)", pipelineString(stages), reply, fresh.ID(), err)
					}
				}
			}
			if err := gw.Flush(ctx); err != nil {
				t.Fatalf("%s: Flush: %v", pipelineString(stages), err)
			}
			gw.Close()
			if pos > 0 {
				inForceDownstream += inForce - before
			}
			runs++
		}
	}
	t.Logf("%d pipelines, %d runs, %d submissions accepted, memo in force at %d checks (%d past the first stage)",
		len(pipelines), runs, accepted, inForce, inForceDownstream)
	if accepted == 0 || inForceDownstream == 0 {
		t.Fatal("the memo was never in force past the first stage: the check checked nothing")
	}
}

// pipelineString renders stage names the way -stages spells a pipeline.
func pipelineString(stages []StageConfig) string {
	s := ""
	for i, sc := range stages {
		if i > 0 {
			s += "|"
		}
		s += sc.Name
		if sc.Params["groupseal"] == "on" {
			s += "(groupseal=on)"
		}
	}
	return s
}

// TestResubmittedRequestIsCheckedAgain: an in-process request accepted once,
// its Channel then changed and the request submitted again under the MAC of
// the first content, is refused. Whatever the gateway remembered of the
// request's digest on the first call must not vouch for the second.
func TestResubmittedRequestIsCheckedAgain(t *testing.T) {
	ca, ps := enroll(t, "alice")
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, nil, WithRequestAuth(AuthMAC))
	if err != nil {
		t.Fatal(err)
	}
	gw, err := NewGateway("gw", Config{Stages: []StageConfig{{Name: StageSession}, {Name: StageAudit}}},
		Env{CAKey: ca.PublicKey(), Log: audit.NewLog(), Sessions: mgr}, ordering.New("op", ordering.VisibilityEnvelope))
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range []string{"deals", "other-deals"} {
		gw.Bind(ch, backendFunc{name: "sink", commit: func(ledger.Block) error { return nil }})
	}
	grant := openSession(t, mgr, ps["alice"])
	req := &Request{Channel: "deals", Principal: "alice", Payload: []byte("trade"), SessionToken: grant.Token}
	MACRequest(req, grant.MacKey)
	if err := gw.Submit(context.Background(), req); err != nil {
		t.Fatalf("first submission: %v", err)
	}
	req.Channel = "other-deals"
	if err := gw.Submit(context.Background(), req); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("resubmission to another channel under the old MAC: %v, want ErrBadMAC", err)
	}
}
