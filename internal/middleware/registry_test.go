package middleware

import (
	"context"
	"errors"
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

func TestRegisterStageRejectsDuplicate(t *testing.T) {
	err := registerStage(stageDef{name: StageAuthn, build: nopBuild})
	if err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("duplicate registration = %v, want already-registered error", err)
	}
	// The built-in definition must have survived the rejected attempt.
	if def := lookupStage(StageAuthn); def == nil || len(def.after) == 0 {
		t.Fatal("built-in authn definition was clobbered by a rejected registration")
	}
}

func TestRegisterStageRejectsConstraintCycle(t *testing.T) {
	// A self-inconsistent definition: it must run both before and after
	// authn. Registration fails and leaves no trace in the registry.
	err := registerStage(stageDef{
		name:   "cyclestage",
		build:  nopBuild,
		after:  []orderRule{{StageAuthn, "test"}},
		before: []orderRule{{StageAuthn, "test"}},
	})
	if err == nil || !strings.Contains(err.Error(), "ordering cycle") {
		t.Fatalf("cycling registration = %v, want ordering-cycle error", err)
	}
	if lookupStage("cyclestage") != nil {
		t.Fatal("failed registration left the stage in the registry")
	}
}

func TestRegisterStageRejectsCycleAcrossStages(t *testing.T) {
	// Two new stages whose rules close a loop through each other: the
	// second registration must detect the cycle the first one opened.
	if err := registerStage(stageDef{
		name:  "cyclea",
		build: nopBuild,
		after: []orderRule{{"cycleb", "test"}},
	}); err != nil {
		t.Fatalf("first registration failed: %v", err)
	}
	defer removeStage("cyclea")
	err := registerStage(stageDef{
		name:  "cycleb",
		build: nopBuild,
		after: []orderRule{{"cyclea", "test"}},
	})
	if err == nil || !strings.Contains(err.Error(), "ordering cycle") {
		t.Fatalf("cross-stage cycle = %v, want ordering-cycle error", err)
	}
	if lookupStage("cycleb") != nil {
		t.Fatal("failed registration left the stage in the registry")
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
		StageBatch, StageBreaker, StageEncrypt, StageRateLimit, StageSession,
		StageZKProof,
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
		{"retry is no stage", "session|retry(attempts=3)|breaker", `unknown stage "retry"`},
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
