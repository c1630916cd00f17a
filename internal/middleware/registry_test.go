package middleware

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
)

// nopStage is a pass-through Stage for registry tests.
type nopStage struct{}

func (nopStage) Name() string { return "nop" }

func (nopStage) Handle(ctx context.Context, req *Request, next Handler) error {
	return next(ctx, req)
}

// nopBuild is a registration-only constructor for registry tests.
func nopBuild(p *params, sc StageConfig, env Env) (Stage, error) {
	return nopStage{}, nil
}

// removeStage uninstalls a definition, so that a test does not leak its
// scratch stages into the process-wide vocabulary.
func removeStage(name string) {
	registryMu.Lock()
	delete(registry, name)
	registryMu.Unlock()
}

func TestRegisterStageRejectsDuplicate(t *testing.T) {
	err := registerStage(stageDef{name: StageSession, build: nopBuild})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration = %v, want already-registered error", err)
	}
	// The built-in definition must have survived the rejected attempt.
	if def := lookupStage(StageSession); def == nil || len(def.gives) == 0 {
		t.Fatal("built-in session definition was clobbered by a rejected registration")
	}
}

func TestRegisterStageRejectsBadDefinitions(t *testing.T) {
	cases := []struct {
		name string
		def  stageDef
	}{
		{"empty name", stageDef{build: nopBuild}},
		{"reserved char pipe", stageDef{name: "my|stage", build: nopBuild}},
		{"reserved char paren", stageDef{name: "my(stage)", build: nopBuild}},
		{"reserved char space", stageDef{name: "my stage", build: nopBuild}},
		{"nil build", stageDef{name: "nobuild"}},
		{"duplicate param", stageDef{name: "dupparam", build: nopBuild,
			params: []paramSpec{{"size", ""}, {"size", ""}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := registerStage(tc.def); err == nil {
				t.Fatal("bad definition registered")
			}
			if tc.def.name != "" && lookupStage(tc.def.name) != nil {
				t.Fatal("failed registration left the stage in the registry")
			}
		})
	}
}

func TestRegisteredStagesListsAllBuiltins(t *testing.T) {
	names := RegisteredStages()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("RegisteredStages not sorted: %v", names)
		}
	}
	want := []string{
		StageAggregate, StageAnonCred, StageAttest, StageAudit, StageAuthn,
		StageBatch, StageEncrypt, StageSession, StageZKProof,
	}
	got := make(map[string]bool, len(names))
	for _, n := range names {
		got[n] = true
	}
	for _, w := range want {
		if !got[w] {
			t.Fatalf("RegisteredStages() = %v, missing %q", names, w)
		}
	}
	usage := StageUsage()
	for _, w := range want {
		if !strings.Contains(usage, w) {
			t.Fatalf("StageUsage() missing %q", w)
		}
	}
	// The line after a stage's description is the facts it declares.
	lines := strings.Split(usage, "\n")
	for stage, fact := range map[string]string{StageEncrypt: "needs principal", StageAggregate: "refuses sealed"} {
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "  "+stage+" ") })
		if i < 0 || i+1 == len(lines) || !strings.Contains(lines[i+1], fact) {
			t.Errorf("StageUsage() does not declare %q for %s:\n%s", fact, stage, usage)
		}
	}
}

func TestParseStages(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []StageConfig
	}{
		{"bare names", "session|authn", []StageConfig{
			{Name: StageSession}, {Name: StageAuthn},
		}},
		{"mode sugar", "zkproof=range", []StageConfig{
			{Name: StageZKProof, Params: map[string]string{"mode": "range"}},
		}},
		{"param list", "batch(size=4)", []StageConfig{
			{Name: StageBatch, Params: map[string]string{"size": "4"}},
		}},
		{"composite values", "anoncred(mode=present,attrs=role=member+org=bank,scope=audit)", []StageConfig{
			{Name: StageAnonCred, Params: map[string]string{
				"mode": "present", "attrs": "role=member+org=bank", "scope": "audit",
			}},
		}},
		{"full pipeline", "session(ttl=10m)|authn|attest(bind=output)|encrypt|audit", []StageConfig{
			{Name: StageSession, Params: map[string]string{"ttl": "10m"}},
			{Name: StageAuthn},
			{Name: StageAttest, Params: map[string]string{"bind": "output"}},
			{Name: StageEncrypt},
			{Name: StageAudit},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ParseStages(tc.in)
			if err != nil {
				t.Fatalf("ParseStages(%q) = %v", tc.in, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ParseStages(%q) = %+v, want %+v", tc.in, got, tc.want)
			}
			for i := range tc.want {
				if got[i].Name != tc.want[i].Name {
					t.Fatalf("stage %d name = %q, want %q", i, got[i].Name, tc.want[i].Name)
				}
				if len(got[i].Params) != len(tc.want[i].Params) {
					t.Fatalf("stage %d params = %v, want %v", i, got[i].Params, tc.want[i].Params)
				}
				for k, v := range tc.want[i].Params {
					if got[i].Params[k] != v {
						t.Fatalf("stage %d param %s = %q, want %q", i, k, got[i].Params[k], v)
					}
				}
			}
		})
	}
}

func TestParseStagesRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantMsg string
	}{
		{"unknown stage", "session|zkpruf", `unknown stage "zkpruf"`},
		{"unknown stage lists registry", "nope", "registered stages:"},
		{"retry is no stage", "session|retry(attempts=3)|audit", `unknown stage "retry"`},
		{"empty spec", "session||authn", "empty stage spec"},
		{"missing paren", "batch(size=4", "missing closing parenthesis"},
		{"bare param", "batch(4)", "not key=value"},
		{"empty string", "", "empty stage spec"},
		{"repeated param", "session|encrypt(keyttl=5m,keyttl=0)", `stage spec "encrypt(keyttl=5m,keyttl=0)": param "keyttl" given twice`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseStages(tc.in)
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("ParseStages(%q) = %v, want ErrBadConfig", tc.in, err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// referenceRule is one stage's entry in the ordering rulebook the fact walk
// in Config.validate replaced, kept as the reference the walk must agree
// with on every pipeline.
type referenceRule struct {
	follows   []string // at least one of these runs earlier
	before    []string // each of these, when present, runs later
	conflicts []string // none of these may be present
	terminal  bool     // nothing may follow
}

// The rulebook as the pass-through authn left it: authn follows an
// authenticator like encrypt does and no longer orders session or anoncred
// around itself, and anoncred goes before session, which refuses a request
// without a token that nothing before it authenticated. The ratelimit and
// breaker rows went with their stages, and so did anoncred's rule to go
// before ratelimit and the "after" rule kind, which only ratelimit used.
var referenceRulebook = map[string]referenceRule{
	StageSession:   {},
	StageAuthn:     {follows: []string{StageAnonCred, StageSession}},
	StageEncrypt:   {follows: []string{StageAnonCred, StageSession}},
	StageAudit:     {},
	StageBatch:     {terminal: true},
	StageZKProof:   {follows: []string{StageAnonCred, StageSession}, before: []string{StageEncrypt}},
	StageAnonCred:  {before: []string{StageSession}},
	StageAttest:    {before: []string{StageEncrypt}},
	StageAggregate: {terminal: true, conflicts: []string{StageBatch, StageEncrypt}},
}

// referenceAdmits is the old rulebook's verdict on a pipeline of distinct
// stage names.
func referenceAdmits(pipeline []string) bool {
	pos := make(map[string]int, len(pipeline))
	for i, name := range pipeline {
		pos[name] = i
	}
	for i, name := range pipeline {
		r := referenceRulebook[name]
		for _, other := range r.conflicts {
			if _, present := pos[other]; present {
				return false
			}
		}
		for _, other := range r.before {
			if j, present := pos[other]; present && j < i {
				return false
			}
		}
		if len(r.follows) > 0 && !slices.ContainsFunc(pipeline[:i], func(s string) bool { return slices.Contains(r.follows, s) }) {
			return false
		}
		if r.terminal && i != len(pipeline)-1 {
			return false
		}
	}
	return true
}

// walkAdmits is Config.validate's verdict on a pipeline of bare stage names.
func walkAdmits(pipeline []string) bool {
	stages := make([]StageConfig, len(pipeline))
	for i, name := range pipeline {
		stages[i] = StageConfig{Name: name}
	}
	return Config{Stages: stages}.validate() == nil
}

// TestStageOrderMatchesReference walks every ordering of every subset of the
// registered stages and checks the fact walk against the old rulebook on
// each. Both refuse every extension of a pipeline they refuse, so a prefix
// both refuse is not extended; a prefix they disagree on is.
func TestStageOrderMatchesReference(t *testing.T) {
	names := RegisteredStages()
	if len(names) != len(referenceRulebook) {
		t.Fatalf("registered stages %v, the reference rulebook has %d", names, len(referenceRulebook))
	}
	for _, name := range names {
		if _, ok := referenceRulebook[name]; !ok {
			t.Fatalf("stage %q has no reference rule", name)
		}
	}
	var admitted, refused, disagreements int
	used := make(map[string]bool, len(names))
	var pipeline []string
	var extend func()
	extend = func() {
		for _, name := range names {
			if used[name] {
				continue
			}
			pipeline = append(pipeline, name)
			walk, ref := walkAdmits(pipeline), referenceAdmits(pipeline)
			switch {
			case walk != ref:
				disagreements++
				if disagreements <= 10 {
					t.Errorf("%s: walk admits %v, reference admits %v", strings.Join(pipeline, "|"), walk, ref)
				}
			case walk:
				admitted++
			default:
				refused++
			}
			if walk || ref {
				used[name] = true
				extend()
				used[name] = false
			}
			pipeline = pipeline[:len(pipeline)-1]
		}
	}
	extend()
	t.Logf("%d pipelines admitted, %d refused prefixes, %d disagreements", admitted, refused, disagreements)
	if admitted != 4081 {
		t.Errorf("%d pipelines admitted, want 4081", admitted)
	}
}
