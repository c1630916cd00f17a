package middleware

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/tee"
)

func testEnv(t *testing.T) Env {
	t.Helper()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	return Env{
		CAKey:     key.Public(),
		Directory: StaticDirectory{},
		Log:       audit.NewLog(),
	}
}

func stageList(names ...string) Config {
	cfg := Config{}
	for _, n := range names {
		cfg.Stages = append(cfg.Stages, StageConfig{Name: n})
	}
	return cfg
}

func TestConfigBuildsFullChain(t *testing.T) {
	cfg := stageList(StageSession, StageAuthn, StageEncrypt, StageAudit, StageBatch)
	chain, err := cfg.build(testEnv(t), nil)
	if err != nil {
		t.Fatalf("full chain rejected: %v", err)
	}
	want := []string{StageSession, StageAuthn, StageEncrypt, StageAudit, StageBatch}
	if len(chain.stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(chain.stages), len(want))
	}
	for i, s := range chain.stages {
		if s.Name() != want[i] {
			t.Fatalf("stage %d = %s, want %s", i, s.Name(), want[i])
		}
	}
}

func TestConfigRejectsMisordering(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"empty", Config{}},
		{"unknown stage", stageList("authz")},
		{"duplicate stage", stageList(StageAuthn, StageAuthn)},
		{"encrypt before authn", stageList(StageEncrypt, StageAuthn)},
		{"encrypt without authn", stageList(StageEncrypt)},
		{"batch not last", stageList(StageSession, StageBatch, StageAudit)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.build(testEnv(t), nil); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
		})
	}
	// Deleted stages stay deleted: each is an unknown stage, and the usage
	// text lists none of them.
	t.Run("retry is no stage", func(t *testing.T) {
		usage := StageUsage()
		for _, gone := range []string{"retry", "ratelimit", "breaker"} {
			_, err := stageList(gone).build(testEnv(t), nil)
			if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), fmt.Sprintf("unknown stage %q", gone)) {
				t.Fatalf("Build(%s) = %v, want an unknown stage", gone, err)
			}
			if strings.Contains(usage, "  "+gone+" ") {
				t.Fatalf("StageUsage() lists %q:\n%s", gone, usage)
			}
		}
	})
}

func TestConfigRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"non-integer batch size", Config{Stages: []StageConfig{
			{Name: StageBatch, Params: map[string]string{"size": "many"}},
		}}},
		{"zero batch size", Config{Stages: []StageConfig{
			{Name: StageBatch, Params: map[string]string{"size": "0"}},
		}}},
		{"bad duration", Config{Stages: []StageConfig{
			{Name: StageSession, Params: map[string]string{"idle": "soon"}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.build(testEnv(t), nil); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestConfigRejectsMissingDependencies(t *testing.T) {
	env := testEnv(t)

	noCA := env
	noCA.CAKey = dcrypto.PublicKey{}
	if _, err := stageList(StageSession).build(noCA, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("session without CA key = %v, want ErrBadConfig", err)
	}

	noDir := env
	noDir.Directory = nil
	if _, err := stageList(StageSession, StageEncrypt).build(noDir, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("encrypt without directory = %v, want ErrBadConfig", err)
	}

	noLog := env
	noLog.Log = nil
	if _, err := stageList(StageAudit).build(noLog, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("audit without log = %v, want ErrBadConfig", err)
	}
}

// TestConfigParamMatrix is the table covering every stage's parameter
// parsing: each rejected case asserts both the ErrBadConfig wrap and the
// operator-facing rejection message, each accepted case must build.
func TestConfigParamMatrix(t *testing.T) {
	session := func(params map[string]string) Config {
		return Config{Stages: []StageConfig{{Name: StageSession, Params: params}}}
	}
	one := func(name string, params map[string]string) Config {
		return Config{Stages: []StageConfig{{Name: name, Params: params}}}
	}
	encrypt := func(params map[string]string) Config {
		return Config{Stages: []StageConfig{
			{Name: StageSession},
			{Name: StageEncrypt, Params: params},
		}}
	}
	revEnv := testEnv(t)
	ca, err := pki.NewCA("matrix-ca")
	if err != nil {
		t.Fatal(err)
	}
	revEnv.Revoker = ca
	rejected := []struct {
		name    string
		cfg     Config
		env     *Env // nil: the plain test env
		wantMsg string
	}{
		// session
		{"session ttl not a duration", session(map[string]string{"ttl": "soon"}), nil, `ttl="soon" is not a duration`},
		{"session ttl zero", session(map[string]string{"ttl": "0s"}), nil, "ttl and idle must be positive"},
		{"session idle not a duration", session(map[string]string{"idle": "later"}), nil, `idle="later" is not a duration`},
		{"session idle negative", session(map[string]string{"idle": "-1m"}), nil, "ttl and idle must be positive"},
		{"session maxperprincipal not an integer", session(map[string]string{"maxperprincipal": "few"}), nil, `maxperprincipal="few" is not an integer`},
		{"session maxperprincipal negative", session(map[string]string{"maxperprincipal": "-2"}), nil, "maxperprincipal must be >= 0"},
		{"session reqauth unknown", session(map[string]string{"reqauth": "password"}), nil, `reqauth="password": session requests are authenticated by MAC only`},
		{"session reqauth sig", session(map[string]string{"reqauth": "sig"}), nil, `reqauth="sig": session requests are authenticated by MAC only`},
		// revokecheck accepts only resolve, its compatibility value, and only
		// with a revoker: checking follows Env.Revoker. revokesweep is gone.
		{"session revokecheck unknown", session(map[string]string{"revokecheck": "eventually"}), nil, `revokecheck="eventually": revocation checking follows Env.Revoker`},
		{"session revokecheck off without revoker", session(map[string]string{"revokecheck": "off"}), nil, `revokecheck="off": revocation checking follows Env.Revoker`},
		{"session revokecheck off with revoker", session(map[string]string{"revokecheck": "off"}), &revEnv, `revokecheck="off": revocation checking follows Env.Revoker`},
		{"session revokecheck sweep", session(map[string]string{"revokecheck": "sweep"}), &revEnv, `revokecheck="sweep": revocation checking follows Env.Revoker`},
		{"session revokecheck without revoker", session(map[string]string{"revokecheck": "resolve"}), nil, "needs Env.Revoker"},
		{"session revokecheck sweep with interval", session(map[string]string{"revokecheck": "sweep", "revokesweep": "45s"}), &revEnv, `unknown param "revokesweep"`},
		{"session revokesweep without sweep mode", session(map[string]string{"revokesweep": "30s"}), nil, `unknown param "revokesweep"`},
		{"session revokesweep with resolve mode", session(map[string]string{"revokecheck": "resolve", "revokesweep": "30s"}), &revEnv, `unknown param "revokesweep"`},
		{"session revokesweep not a duration", session(map[string]string{"revokecheck": "sweep", "revokesweep": "often"}), &revEnv, `unknown param "revokesweep"`},
		{"session revokesweep zero", session(map[string]string{"revokecheck": "sweep", "revokesweep": "0s"}), &revEnv, `unknown param "revokesweep"`},
		// encrypt
		{"encrypt keyttl not a duration", encrypt(map[string]string{"keyttl": "soon"}), nil, `keyttl="soon" is not a duration`},
		{"encrypt keyttl negative", encrypt(map[string]string{"keyttl": "-5m"}), nil, "keyttl must be >= 0"},
		// batch
		{"batch size not an integer", one(StageBatch, map[string]string{"size": "many"}), nil, `size="many" is not an integer`},
		{"batch size zero", one(StageBatch, map[string]string{"size": "0"}), nil, "size >= 1"},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			env := testEnv(t)
			if tc.env != nil {
				env = *tc.env
			}
			_, err := tc.cfg.build(env, nil)
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("rejection %q does not mention %q", err, tc.wantMsg)
			}
		})
	}

	accepted := []struct {
		name string
		cfg  Config
		env  Env
	}{
		{"session defaults", session(nil), testEnv(t)},
		{"session full params", session(map[string]string{
			"ttl": "1h", "idle": "5m", "maxperprincipal": "8",
		}), testEnv(t)},
		{"session reqauth mac", session(map[string]string{"reqauth": "mac"}), testEnv(t)},
		{"session revokecheck resolve", session(map[string]string{"revokecheck": "resolve"}), revEnv},
		{"session revoker without revokecheck", session(nil), revEnv},
		{"encrypt cached", encrypt(map[string]string{"keyttl": "10m"}), testEnv(t)},
	}
	for _, tc := range accepted {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.build(tc.env, nil); err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
		})
	}
}

// TestConfigRejectsRevocationParamsWithInjectedManager pins the rule that
// a declared security control is never silently ignored: revokecheck on
// the session stage conflicts with an Env.Sessions override (whose
// revocation setup is fixed at manager construction).
func TestConfigRejectsRevocationParamsWithInjectedManager(t *testing.T) {
	env := testEnv(t)
	mgr, err := NewSessionManager(env.CAKey, time.Hour, time.Hour, nil)
	if err != nil {
		t.Fatal(err)
	}
	env.Sessions = mgr
	for _, params := range []map[string]string{
		{"revokecheck": "resolve"},
		{"revokecheck": "off"},
	} {
		cfg := Config{Stages: []StageConfig{{Name: StageSession, Params: params}}}
		_, err := cfg.build(env, nil)
		if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "conflicts with Env.Sessions") {
			t.Fatalf("params %v with injected manager = %v, want conflict rejection", params, err)
		}
	}
	// Without the conflicting params the injected manager still works.
	cfg := Config{Stages: []StageConfig{{Name: StageSession}}}
	if _, err := cfg.build(env, nil); err != nil {
		t.Fatalf("injected manager rejected: %v", err)
	}
}

// privacyTestKeys holds the expensive shared fixtures for the privacy
// stage matrix: an anoncred issuer key and a Paillier collector key.
var privacyTestKeys = sync.OnceValues(func() (Env, error) {
	issuer := anoncred.NewIssuer("test-issuer")
	credKey, err := issuer.RegisterAttributeSet([]string{"role=member"})
	if err != nil {
		return Env{}, err
	}
	collector, err := paillier.GenerateKey(512)
	if err != nil {
		return Env{}, err
	}
	man, err := tee.NewManufacturer()
	if err != nil {
		return Env{}, err
	}
	return Env{
		AnonCredKey: credKey,
		Aggregator:  &collector.PublicKey,
		Attestation: &AttestationPolicy{
			Manufacturer: man.PublicKey(),
			Measurement:  tee.Program{Name: "p", Version: "1"}.Measurement(),
		},
	}, nil
})

// privacyEnv is testEnv plus the privacy-stage dependencies: issuer
// attribute key, attestation policy, and Paillier collector key.
func privacyEnv(t *testing.T) Env {
	t.Helper()
	keys, err := privacyTestKeys()
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t)
	env.AnonCredKey = keys.AnonCredKey
	env.Attestation = keys.Attestation
	env.Aggregator = keys.Aggregator
	return env
}

// anoncredOptional passes on a request that presents no credential.
var anoncredOptional = StageConfig{Name: StageAnonCred, Params: map[string]string{
	"attrs": "role=member", "scope": "audit", "require": "off",
}}

func TestConfigAcceptsPrivacyStages(t *testing.T) {
	anoncredStage := StageConfig{Name: StageAnonCred, Params: map[string]string{
		"attrs": "role=member", "scope": "audit",
	}}
	cases := []struct {
		name   string
		stages []StageConfig
	}{
		{"zkproof after authn", []StageConfig{
			{Name: StageSession}, {Name: StageAuthn}, {Name: StageZKProof}, {Name: StageEncrypt}, {Name: StageAudit},
		}},
		{"zkproof after session", []StageConfig{
			{Name: StageSession}, {Name: StageZKProof}, {Name: StageEncrypt},
		}},
		{"anoncred replaces authn", []StageConfig{
			anoncredStage, {Name: StageEncrypt},
		}},
		{"attest before encrypt", []StageConfig{
			{Name: StageSession}, {Name: StageAttest}, {Name: StageEncrypt},
		}},
		{"aggregate terminal", []StageConfig{
			anoncredStage, {Name: StageAudit, Params: map[string]string{"observer": "reg"}},
			{Name: StageAggregate, Params: map[string]string{"size": "3"}},
		}},
		{"flagship composition", []StageConfig{
			anoncredStage, {Name: StageZKProof}, {Name: StageAttest},
			{Name: StageEncrypt}, {Name: StageAudit},
		}},
		{"anoncred(require=off) before session", []StageConfig{
			anoncredOptional, {Name: StageSession}, {Name: StageAuthn}, {Name: StageEncrypt}, {Name: StageAudit},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chain, err := (Config{Stages: tc.stages}).build(privacyEnv(t), nil)
			if err != nil {
				t.Fatalf("valid privacy config rejected: %v", err)
			}
			for i, sc := range tc.stages {
				if got := chain.stages[i].Name(); got != sc.Name {
					t.Fatalf("stage %d = %s, want %s", i, got, sc.Name)
				}
			}
		})
	}
}

func TestConfigRejectsPrivacyStageMisuse(t *testing.T) {
	anoncredStage := StageConfig{Name: StageAnonCred, Params: map[string]string{
		"attrs": "role=member", "scope": "audit",
	}}
	cases := []struct {
		name    string
		stages  []StageConfig
		wantMsg string
	}{
		{"zkproof without authenticator",
			[]StageConfig{{Name: StageZKProof}, {Name: StageEncrypt}},
			`"zkproof" needs "anoncred" or "session" before it: proof contexts are bound to the verified principal`},
		{"zkproof after encrypt",
			[]StageConfig{{Name: StageSession}, {Name: StageEncrypt}, {Name: StageZKProof}},
			`"zkproof" cannot follow "encrypt": claims are checked against the plaintext submission before it is sealed`},
		{"anoncred after authn",
			[]StageConfig{{Name: StageAuthn}, anoncredStage},
			`"authn" needs "anoncred" or "session" before it: it checks nothing itself: a certificate is verified at session open`},
		{"attest after encrypt",
			[]StageConfig{{Name: StageSession}, {Name: StageEncrypt}, {Name: StageAttest}},
			`"attest" cannot follow "encrypt": attestations bind to the plaintext payload, which sealing hides`},
		{"aggregate not last",
			[]StageConfig{anoncredStage, {Name: StageAggregate}, {Name: StageAudit}},
			`"audit" cannot follow "aggregate": any later stage would be skipped for aggregated requests`},
		{"aggregate with batch",
			[]StageConfig{{Name: StageSession}, {Name: StageBatch}, {Name: StageAggregate}},
			`"aggregate" cannot follow "batch": one terminal collector owns the held-request release path`},
		{"aggregate with encrypt",
			[]StageConfig{{Name: StageSession}, {Name: StageEncrypt}, {Name: StageAggregate}},
			`"aggregate" cannot follow "encrypt": aggregation combines paillier ciphertexts, which envelope sealing would hide`},
		{"session after authn",
			[]StageConfig{{Name: StageAuthn}, {Name: StageSession}},
			`"authn" needs "anoncred" or "session" before it: it checks nothing itself: a certificate is verified at session open`},
		// anoncred first, and require=off for the session's token requests.
		{"anoncred after session",
			[]StageConfig{{Name: StageSession}, anoncredStage},
			`"anoncred" cannot follow "session": a request without a session token is refused at the session stage, so a credential is verified before it: put anoncred first, with require=off so that token requests pass it`},
		// A bare request would pass anoncred(require=off) and authn
		// unauthenticated, and audit would order it.
		{"authn after anoncred(require=off)",
			[]StageConfig{anoncredOptional, {Name: StageAuthn}, {Name: StageAudit}},
			`"authn" needs "anoncred" or "session" before it: it checks nothing itself: a certificate is verified at session open; "anoncred" gives no principal: with require=off it passes on a request that presents no credential, for a session stage after it to authenticate`},
		{"encrypt after anoncred(require=off)",
			[]StageConfig{anoncredOptional, {Name: StageEncrypt}},
			`"encrypt" needs "anoncred" or "session" before it: never seal an envelope for an unverified submitter; "anoncred" gives no principal`},
		{"zkproof unknown param",
			[]StageConfig{{Name: StageSession}, {Name: StageZKProof, Params: map[string]string{"bitz": "16"}}},
			`unknown param "bitz"`},
		{"zkproof bits out of range",
			[]StageConfig{{Name: StageSession}, {Name: StageZKProof, Params: map[string]string{"bits": "99"}}},
			"bits must be in [1, 64]"},
		{"zkproof unknown mode",
			[]StageConfig{{Name: StageSession}, {Name: StageZKProof, Params: map[string]string{"mode": "bulletproof"}}},
			"unknown zkproof mode"},
		{"anoncred missing attrs",
			[]StageConfig{{Name: StageAnonCred, Params: map[string]string{"scope": "audit"}}},
			"anoncred needs attrs"},
		{"anoncred missing scope",
			[]StageConfig{{Name: StageAnonCred, Params: map[string]string{"attrs": "role=member"}}},
			"anoncred needs scope"},
		{"anoncred bad require",
			[]StageConfig{{Name: StageAnonCred, Params: map[string]string{
				"attrs": "role=member", "scope": "audit", "require": "maybe",
			}}},
			"must be one of on|off"},
		{"attest bad bind",
			[]StageConfig{{Name: StageSession}, {Name: StageAttest, Params: map[string]string{"bind": "sideways"}}},
			"must be one of input|output|off"},
		{"aggregate zero size",
			[]StageConfig{anoncredStage, {Name: StageAggregate, Params: map[string]string{"size": "0"}}},
			"size >= 1"},
		{"aggregate unknown mode",
			[]StageConfig{anoncredStage, {Name: StageAggregate, Params: map[string]string{"mode": "elgamal"}}},
			"unknown aggregate mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := (Config{Stages: tc.stages}).build(privacyEnv(t), nil)
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("rejection %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}

// TestConfigRejectsPrivacyStagesWithoutEnv pins the missing-dependency
// errors: each privacy stage names the Env field it needs.
func TestConfigRejectsPrivacyStagesWithoutEnv(t *testing.T) {
	cases := []struct {
		name    string
		stages  []StageConfig
		wantMsg string
	}{
		{"anoncred", []StageConfig{{Name: StageAnonCred, Params: map[string]string{
			"attrs": "role=member", "scope": "audit",
		}}}, "Env.AnonCredKey"},
		{"attest", []StageConfig{{Name: StageSession}, {Name: StageAttest}}, "Env.Attestation"},
		{"aggregate", []StageConfig{{Name: StageSession}, {Name: StageAggregate}}, "Env.Aggregator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := (Config{Stages: tc.stages}).build(testEnv(t), nil)
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("rejection %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}
