package middleware

import (
	"errors"
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
	cfg := stageList(StageAuthn, StageEncrypt, StageAudit, StageRateLimit, StageBreaker, StageBatch)
	chain, err := cfg.Build(testEnv(t), nil)
	if err != nil {
		t.Fatalf("full chain rejected: %v", err)
	}
	want := []string{StageAuthn, StageEncrypt, StageAudit, StageRateLimit, StageBreaker, StageBatch}
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
		{"ratelimit before authn", stageList(StageRateLimit, StageAuthn)},
		{"retry is no stage", stageList("retry", StageBreaker)},
		{"batch not last", stageList(StageAuthn, StageBatch, StageAudit)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.Build(testEnv(t), nil); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
		})
	}
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
		{"negative rate", Config{Stages: []StageConfig{
			{Name: StageRateLimit, Params: map[string]string{"rate": "-1"}},
		}}},
		{"bad duration", Config{Stages: []StageConfig{
			{Name: StageBreaker, Params: map[string]string{"cooldown": "soon"}},
		}}},
		{"zero breaker threshold", Config{Stages: []StageConfig{
			{Name: StageBreaker, Params: map[string]string{"threshold": "0"}},
		}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.Build(testEnv(t), nil); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestConfigRejectsMissingDependencies(t *testing.T) {
	env := testEnv(t)

	noCA := env
	noCA.CAKey = dcrypto.PublicKey{}
	if _, err := stageList(StageAuthn).Build(noCA, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("authn without CA key = %v, want ErrBadConfig", err)
	}

	noDir := env
	noDir.Directory = nil
	if _, err := stageList(StageAuthn, StageEncrypt).Build(noDir, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("encrypt without directory = %v, want ErrBadConfig", err)
	}

	noLog := env
	noLog.Log = nil
	if _, err := stageList(StageAudit).Build(noLog, nil); !errors.Is(err, ErrBadConfig) {
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
			{Name: StageAuthn},
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
		{"session revokecheck unknown", session(map[string]string{"revokecheck": "eventually"}), nil, `unknown revocation check mode "eventually"`},
		{"session revokecheck without revoker", session(map[string]string{"revokecheck": "resolve"}), nil, "needs Env.Revoker"},
		{"session revokesweep without sweep mode", session(map[string]string{"revokesweep": "30s"}), nil, "only valid with revokecheck=sweep"},
		{"session revokesweep with resolve mode", session(map[string]string{"revokecheck": "resolve", "revokesweep": "30s"}), &revEnv, "only valid with revokecheck=sweep"},
		{"session revokesweep not a duration", session(map[string]string{"revokecheck": "sweep", "revokesweep": "often"}), &revEnv, `revokesweep="often" is not a duration`},
		{"session revokesweep zero", session(map[string]string{"revokecheck": "sweep", "revokesweep": "0s"}), &revEnv, "revokesweep must be positive"},
		// encrypt
		{"encrypt keyttl not a duration", encrypt(map[string]string{"keyttl": "soon"}), nil, `keyttl="soon" is not a duration`},
		{"encrypt keyttl negative", encrypt(map[string]string{"keyttl": "-5m"}), nil, "keyttl must be >= 0"},
		// ratelimit
		{"ratelimit rate not a number", one(StageRateLimit, map[string]string{"rate": "fast"}), nil, `rate="fast" is not a number`},
		{"ratelimit rate zero", one(StageRateLimit, map[string]string{"rate": "0"}), nil, "needs rate > 0"},
		{"ratelimit burst zero", one(StageRateLimit, map[string]string{"burst": "0"}), nil, "burst >= 1"},
		// breaker
		{"breaker threshold not an integer", one(StageBreaker, map[string]string{"threshold": "low"}), nil, `threshold="low" is not an integer`},
		{"breaker threshold zero", one(StageBreaker, map[string]string{"threshold": "0"}), nil, "threshold >= 1"},
		{"breaker cooldown not a duration", one(StageBreaker, map[string]string{"cooldown": "while"}), nil, `cooldown="while" is not a duration`},
		{"breaker cooldown zero", one(StageBreaker, map[string]string{"cooldown": "0s"}), nil, "cooldown > 0"},
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
			_, err := tc.cfg.Build(env, nil)
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
		{"session revokecheck off without revoker", session(map[string]string{"revokecheck": "off"}), testEnv(t)},
		{"session revokecheck resolve", session(map[string]string{"revokecheck": "resolve"}), revEnv},
		{"session revokecheck sweep with interval", session(map[string]string{
			"revokecheck": "sweep", "revokesweep": "45s",
		}), revEnv},
		{"encrypt cached", encrypt(map[string]string{"keyttl": "10m"}), testEnv(t)},
		{"ratelimit fractional", one(StageRateLimit, map[string]string{"rate": "0.5", "burst": "1"}), testEnv(t)},
	}
	for _, tc := range accepted {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.cfg.Build(tc.env, nil); err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
		})
	}
}

// TestConfigRejectsRevocationParamsWithInjectedManager pins the rule that
// a declared security control is never silently ignored: revokecheck /
// revokesweep on the session stage conflict with an Env.Sessions override
// (whose revocation setup is fixed at manager construction).
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
		{"revokesweep": "30s"},
	} {
		cfg := Config{Stages: []StageConfig{{Name: StageSession, Params: params}}}
		_, err := cfg.Build(env, nil)
		if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), "conflicts with Env.Sessions") {
			t.Fatalf("params %v with injected manager = %v, want conflict rejection", params, err)
		}
	}
	// Without the conflicting params the injected manager still works.
	cfg := Config{Stages: []StageConfig{{Name: StageSession}}}
	if _, err := cfg.Build(env, nil); err != nil {
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

func TestConfigAcceptsPrivacyStages(t *testing.T) {
	anoncredStage := StageConfig{Name: StageAnonCred, Params: map[string]string{
		"attrs": "role=member", "scope": "audit",
	}}
	cases := []struct {
		name   string
		stages []StageConfig
	}{
		{"zkproof after authn", []StageConfig{
			{Name: StageAuthn}, {Name: StageZKProof}, {Name: StageEncrypt}, {Name: StageAudit},
		}},
		{"zkproof after session", []StageConfig{
			{Name: StageSession}, {Name: StageZKProof}, {Name: StageEncrypt},
		}},
		{"anoncred replaces authn", []StageConfig{
			anoncredStage, {Name: StageEncrypt},
		}},
		{"anoncred before ratelimit", []StageConfig{
			anoncredStage, {Name: StageRateLimit, Params: map[string]string{"rate": "10", "burst": "10"}},
		}},
		{"attest before encrypt", []StageConfig{
			{Name: StageAuthn}, {Name: StageAttest}, {Name: StageEncrypt},
		}},
		{"aggregate terminal", []StageConfig{
			anoncredStage, {Name: StageAudit, Params: map[string]string{"observer": "reg"}},
			{Name: StageAggregate, Params: map[string]string{"size": "3"}},
		}},
		{"flagship composition", []StageConfig{
			anoncredStage, {Name: StageZKProof}, {Name: StageAttest},
			{Name: StageEncrypt}, {Name: StageAudit},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chain, err := (Config{Stages: tc.stages}).Build(privacyEnv(t), nil)
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
			`"zkproof" needs "anoncred", "authn" or "session" before it: proof contexts are bound to the verified principal`},
		{"zkproof after encrypt",
			[]StageConfig{{Name: StageAuthn}, {Name: StageEncrypt}, {Name: StageZKProof}},
			`"zkproof" cannot follow "encrypt": claims are checked against the plaintext submission before it is sealed`},
		{"anoncred after authn",
			[]StageConfig{{Name: StageAuthn}, anoncredStage},
			`"anoncred" cannot follow "authn": a presented credential authenticates the request before the certificate path runs`},
		{"anoncred after ratelimit",
			[]StageConfig{{Name: StageRateLimit, Params: map[string]string{"rate": "10", "burst": "10"}}, anoncredStage},
			`"anoncred" cannot follow "ratelimit": buckets are keyed by principal, which must be verified first`},
		{"attest after encrypt",
			[]StageConfig{{Name: StageAuthn}, {Name: StageEncrypt}, {Name: StageAttest}},
			`"attest" cannot follow "encrypt": attestations bind to the plaintext payload, which sealing hides`},
		{"aggregate not last",
			[]StageConfig{anoncredStage, {Name: StageAggregate}, {Name: StageAudit}},
			`"audit" cannot follow "aggregate": any later stage would be skipped for aggregated requests`},
		{"aggregate with batch",
			[]StageConfig{{Name: StageAuthn}, {Name: StageBatch}, {Name: StageAggregate}},
			`"aggregate" cannot follow "batch": one terminal collector owns the held-request release path`},
		{"aggregate with encrypt",
			[]StageConfig{{Name: StageAuthn}, {Name: StageEncrypt}, {Name: StageAggregate}},
			`"aggregate" cannot follow "encrypt": aggregation combines paillier ciphertexts, which envelope sealing would hide`},
		{"session after authn",
			[]StageConfig{{Name: StageAuthn}, {Name: StageSession}},
			`"session" cannot follow "authn": token-bearing requests short-circuit the full PKI check`},
		{"session after ratelimit",
			[]StageConfig{{Name: StageRateLimit}, {Name: StageSession}},
			`"session" cannot follow "ratelimit": buckets are keyed by principal, which must be verified first`},
		{"zkproof unknown param",
			[]StageConfig{{Name: StageAuthn}, {Name: StageZKProof, Params: map[string]string{"bitz": "16"}}},
			`unknown param "bitz"`},
		{"zkproof bits out of range",
			[]StageConfig{{Name: StageAuthn}, {Name: StageZKProof, Params: map[string]string{"bits": "99"}}},
			"bits must be in [1, 64]"},
		{"zkproof unknown mode",
			[]StageConfig{{Name: StageAuthn}, {Name: StageZKProof, Params: map[string]string{"mode": "bulletproof"}}},
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
			[]StageConfig{{Name: StageAuthn}, {Name: StageAttest, Params: map[string]string{"bind": "sideways"}}},
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
			_, err := (Config{Stages: tc.stages}).Build(privacyEnv(t), nil)
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
		{"attest", []StageConfig{{Name: StageAuthn}, {Name: StageAttest}}, "Env.Attestation"},
		{"aggregate", []StageConfig{{Name: StageAuthn}, {Name: StageAggregate}}, "Env.Aggregator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := (Config{Stages: tc.stages}).Build(testEnv(t), nil)
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("Build = %v, want ErrBadConfig", err)
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("rejection %q does not mention %q", err, tc.wantMsg)
			}
		})
	}
}
