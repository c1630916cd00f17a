package middleware

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// The stage registry replaces the closed switch that Config.validate and
// buildStage used to hand-maintain: every stage — built-in or added later —
// registers a constructor plus declarative metadata, and the config engine
// walks the registry generically. Ordering rules, parameter vocabularies,
// and conflict sets live next to the stage they describe instead of inside
// one central validator, following the aspect-oriented middleware model of
// keeping each cross-cutting concern a self-contained pluggable module.

// paramSpec declares one parameter a stage accepts. Config rejects
// parameters outside a stage's declared vocabulary at validation time, so a
// typoed knob fails construction instead of being silently ignored.
type paramSpec struct {
	key   string
	usage string
}

// orderRule is one pairwise ordering constraint: when both stages appear in
// a pipeline, one must come earlier. why is the operator-facing rationale
// appended to the rejection message.
type orderRule struct {
	other string
	why   string
}

// conflictRule declares a stage that must not share a pipeline with the
// declaring stage.
type conflictRule struct {
	other string
	why   string
}

// stageDef is a registry entry: the stage's name (also its telemetry label
// in StageStats and the confmw_stage_latency_seconds histograms), its
// parameter vocabulary, its declarative ordering constraints, and the
// constructor the build engine invokes.
type stageDef struct {
	name   string
	desc   string
	params []paramSpec

	// follows lists stages at least one of which must appear earlier in
	// the pipeline (satisfied also by a stage whose countsAs names a
	// member of the list). followWhy is the rejection rationale.
	follows   []string
	followWhy string
	// after: when both are present, after[i].other must come earlier than
	// this stage.
	after []orderRule
	// before: when both are present, this stage must come earlier than
	// before[i].other.
	before []orderRule
	// conflicts: these stages must not share a pipeline with this one.
	conflicts []conflictRule
	// terminal marks a stage that must be the final one; terminalWhy is
	// the parenthetical in the rejection message.
	terminal    bool
	terminalWhy string
	// countsAs names a built-in role this stage can stand in for when
	// other stages declare follows-requirements (e.g. anoncred counts as
	// authn: it authenticates the request, so encrypt accepts it as the
	// verifier it needs upstream).
	countsAs string

	// build constructs the stage. Parameter values arrive pre-declared in
	// p; errors are returned bare — the engine wraps them uniformly as
	// "stage <name>: <err>" under ErrBadConfig.
	build func(p *params, sc StageConfig, env Env) (Stage, error)

	paramSet map[string]bool // derived at registration
}

func (d *stageDef) allowsParam(key string) bool { return d.paramSet[key] }

func (d *stageDef) paramNames() []string {
	names := make([]string, len(d.params))
	for i, ps := range d.params {
		names[i] = ps.key
	}
	return names
}

var (
	registryMu sync.RWMutex
	registry   = map[string]*stageDef{}
)

// registerStage installs a stage definition, rejecting duplicates,
// malformed definitions, and ordering constraints that would make some
// pipeline both required and impossible (a cycle in the precedence graph).
// Built-ins register through mustRegisterStage at init; the error form
// exists so registration failures are testable.
func registerStage(def stageDef) error {
	if def.name == "" || strings.ContainsAny(def.name, " |()=,") {
		return fmt.Errorf("middleware: invalid stage name %q", def.name)
	}
	if def.build == nil {
		return fmt.Errorf("middleware: stage %q has no constructor", def.name)
	}
	def.paramSet = make(map[string]bool, len(def.params))
	for _, ps := range def.params {
		if def.paramSet[ps.key] {
			return fmt.Errorf("middleware: stage %q declares param %q twice", def.name, ps.key)
		}
		def.paramSet[ps.key] = true
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[def.name]; dup {
		return fmt.Errorf("middleware: stage %q already registered", def.name)
	}
	registry[def.name] = &def
	if cyc := precedenceCycle(); cyc != nil {
		delete(registry, def.name)
		return fmt.Errorf("middleware: stage %q creates an ordering cycle: %s", def.name, strings.Join(cyc, " -> "))
	}
	return nil
}

// mustRegisterStage is the init-time form: a bad built-in definition is a
// programming error, not a runtime condition.
func mustRegisterStage(def stageDef) {
	if err := registerStage(def); err != nil {
		panic(err)
	}
}

// removeStage uninstalls a definition; it exists for registry tests, which
// must not leak scratch stages into the process-wide vocabulary.
func removeStage(name string) {
	registryMu.Lock()
	delete(registry, name)
	registryMu.Unlock()
}

func lookupStage(name string) *stageDef {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name]
}

// precedenceCycle looks for a cycle in the directed precedence graph formed
// by every registered after/before rule ("u -> v" meaning u must precede
// v). Edges may reference names that are not registered yet — rules are
// only enforced against stages present in a pipeline — but a cycle among
// the declared edges means some stage combination is unconfigurable, which
// is a definition bug worth failing at registration. Caller holds
// registryMu.
func precedenceCycle() []string {
	edges := map[string][]string{}
	for _, d := range registry {
		for _, r := range d.after {
			edges[r.other] = append(edges[r.other], d.name)
		}
		for _, r := range d.before {
			edges[d.name] = append(edges[d.name], r.other)
		}
	}
	const (
		visiting = 1
		done     = 2
	)
	state := map[string]int{}
	var path []string
	var walk func(n string) []string
	walk = func(n string) []string {
		state[n] = visiting
		path = append(path, n)
		for _, m := range edges[n] {
			switch state[m] {
			case visiting:
				return append(append([]string(nil), path...), m)
			case 0:
				if cyc := walk(m); cyc != nil {
					return cyc
				}
			}
		}
		state[n] = done
		path = path[:len(path)-1]
		return nil
	}
	for n := range edges {
		if state[n] == 0 {
			if cyc := walk(n); cyc != nil {
				return cyc
			}
		}
	}
	return nil
}

// RegisteredStages returns the sorted names of every registered stage —
// the pipeline vocabulary a Config may draw from.
func RegisteredStages() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}

// StageUsage renders the registry as operator-facing help text: one line
// per stage with its description, followed by its parameter vocabulary.
func StageUsage() string {
	var b strings.Builder
	for _, name := range RegisteredStages() {
		def := lookupStage(name)
		if def == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %s\n", def.name, def.desc)
		for _, ps := range def.params {
			fmt.Fprintf(&b, "    %-12s %s\n", ps.key, ps.usage)
		}
	}
	return b.String()
}

// ParseStages parses the compact textual pipeline form used by the
// cmd/gateway -stages flag: stage specs separated by "|", each either
// NAME, NAME=MODE (shorthand for NAME(mode=MODE)), or
// NAME(key=value,key=value,...). Values keep everything after the first
// "=", so composite values like attrs=role=member survive. Unknown stage
// names are rejected here with the registered-stage list, keeping new
// stages discoverable from the CLI, and so is a parameter given twice in
// one spec; everything else (ordering, parameter values) is validated by
// Config.Build.
func ParseStages(s string) ([]StageConfig, error) {
	var out []StageConfig
	for _, seg := range strings.Split(s, "|") {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("%w: empty stage spec in %q", ErrBadConfig, s)
		}
		name := seg
		var stageParams map[string]string
		if i := strings.IndexByte(seg, '('); i >= 0 {
			if !strings.HasSuffix(seg, ")") {
				return nil, fmt.Errorf("%w: stage spec %q: missing closing parenthesis", ErrBadConfig, seg)
			}
			name = seg[:i]
			if inner := seg[i+1 : len(seg)-1]; inner != "" {
				stageParams = make(map[string]string)
				for _, kv := range strings.Split(inner, ",") {
					key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
					if !ok || key == "" {
						return nil, fmt.Errorf("%w: stage spec %q: param %q is not key=value", ErrBadConfig, seg, kv)
					}
					if _, dup := stageParams[key]; dup {
						return nil, fmt.Errorf("%w: stage spec %q: param %q given twice", ErrBadConfig, seg, key)
					}
					stageParams[key] = val
				}
			}
		} else if n, mode, ok := strings.Cut(seg, "="); ok {
			name = n
			stageParams = map[string]string{"mode": mode}
		}
		if lookupStage(name) == nil {
			return nil, fmt.Errorf("%w: unknown stage %q (registered stages: %s)",
				ErrBadConfig, name, strings.Join(RegisteredStages(), ", "))
		}
		out = append(out, StageConfig{Name: name, Params: stageParams})
	}
	return out, nil
}

// quotedList renders a name list for rejection messages: `"a" or "b"`.
func quotedList(names []string, sep string) string {
	quoted := make([]string, len(names))
	for i, n := range names {
		quoted[i] = fmt.Sprintf("%q", n)
	}
	return strings.Join(quoted, sep)
}

// ---------------------------------------------------------------------------
// Built-in stage definitions. Each entry carries the ordering rules the
// package documentation promises, with the exact operator-facing rationale
// the pre-registry validator used.

const whyPrincipalBuckets = "buckets are keyed by principal, which must be verified first"

func init() {
	mustRegisterStage(stageDef{
		name: StageSession,
		desc: "persistent sessions: verify the certificate once, then token/MAC requests",
		params: []paramSpec{
			{"ttl", "session lifetime (duration, default 10m)"},
			{"idle", "idle timeout (duration, default 2m)"},
			{"maxperprincipal", "live-session cap per principal (default 0 = unlimited)"},
			{"reqauth", "steady-state request auth: sig|mac (default sig)"},
			{"revokecheck", "revocation checks: off|resolve|sweep (default off)"},
			{"revokesweep", "sweep interval (duration, only with revokecheck=sweep)"},
		},
		build: buildSessionStage,
	})
	mustRegisterStage(stageDef{
		name: StageAuthn,
		desc: "per-request certificate + signature verification against the CA key",
		after: []orderRule{
			{StageSession, "token-bearing requests short-circuit the full PKI check"},
		},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			if env.CAKey.IsZero() {
				return nil, errors.New("Env.CAKey is required")
			}
			return NewAuthn(env.CAKey, env.Now), nil
		},
	})
	mustRegisterStage(stageDef{
		name: StageEncrypt,
		desc: "seal payloads into channel-member envelopes (Env.Directory)",
		params: []paramSpec{
			{"keyttl", "wrapped-key cache lifetime (duration, default 0 = fresh key per request)"},
		},
		follows:   []string{StageAuthn, StageSession},
		followWhy: "never seal an envelope for an unverified submitter",
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			ttl := p.duration("keyttl", 0)
			if p.err != nil {
				return nil, p.err
			}
			if ttl < 0 {
				return nil, fmt.Errorf("keyttl must be >= 0, got %v (0 disables the key cache)", ttl)
			}
			if ttl > 0 {
				return NewCachedEncrypt(env.Directory, ttl, env.Now)
			}
			return NewEncrypt(env.Directory)
		},
	})
	mustRegisterStage(stageDef{
		name: StageAudit,
		desc: "leakage accounting: record what the observer could see (Env.Log)",
		params: []paramSpec{
			{"observer", `leakage-log observer name (default "gateway")`},
			{"auditasync", "async ring depth (default 0 = record synchronously on the submit path)"},
		},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			observer := p.str("observer", "gateway")
			depth := p.intVal("auditasync", 0)
			if p.err != nil {
				return nil, p.err
			}
			if depth < 0 {
				return nil, fmt.Errorf("auditasync must be >= 0, got %d (0 records synchronously)", depth)
			}
			if depth > 0 {
				return NewAsyncAudit(env.Log, observer, depth)
			}
			return NewAudit(env.Log, observer)
		},
	})
	mustRegisterStage(stageDef{
		name: StageRateLimit,
		desc: "token-bucket limiting keyed by verified principal",
		params: []paramSpec{
			{"rate", "tokens per second (default 100)"},
			{"burst", "bucket capacity (default 10)"},
		},
		after: []orderRule{
			{StageAuthn, whyPrincipalBuckets},
			{StageSession, whyPrincipalBuckets},
		},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			return NewRateLimit(p.floatVal("rate", 100), p.floatVal("burst", 10), env.Now)
		},
	})
	mustRegisterStage(stageDef{
		name: StageRetry,
		desc: "re-attempt transient downstream failures with backoff",
		params: []paramSpec{
			{"attempts", "total attempts (default 3)"},
			{"backoff", "base backoff (duration, default 5ms)"},
		},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			return NewRetry(p.intVal("attempts", 3), p.duration("backoff", 5*time.Millisecond), env.Sleep)
		},
	})
	mustRegisterStage(stageDef{
		name: StageBreaker,
		desc: "circuit breaker over downstream failures",
		params: []paramSpec{
			{"threshold", "consecutive failures before opening (default 5)"},
			{"cooldown", "open-state duration before a probe (duration, default 1s)"},
		},
		after: []orderRule{
			{StageRetry, "each retry attempt must consult the breaker"},
		},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			return NewBreaker(p.intVal("threshold", 5), p.duration("cooldown", time.Second), env.Now)
		},
	})
	mustRegisterStage(stageDef{
		name: StageBatch,
		desc: "write-combine accepted submissions into downstream groups",
		params: []paramSpec{
			{"size", "group size (default 8)"},
			{"groupseal", "seal each (channel, epoch) group with one AEAD invocation: on|off (default off; needs encrypt keyttl > 0)"},
		},
		terminal:    true,
		terminalWhy: "any later stage would be skipped for batched requests",
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			p.enum("groupseal", "off", "on", "off")
			if p.err != nil {
				return nil, p.err
			}
			return NewBatch(p.intVal("size", 8))
		},
	})
}

// buildSessionStage mirrors the session stage's historical construction
// flow exactly: parameter errors, dependency errors, and the injected-
// manager conflict keep their original precedence and wording.
func buildSessionStage(p *params, sc StageConfig, env Env) (Stage, error) {
	mgr := env.Sessions
	if mgr != nil && len(sc.Params) > 0 {
		// An injected manager carries its own ttl/idle/cap/revocation
		// setup; a knob that would be silently ignored here is a
		// misconfiguration, not a default.
		for key := range sc.Params {
			return nil, fmt.Errorf("param %s conflicts with Env.Sessions — configure the injected manager at construction instead", key)
		}
	}
	if mgr == nil {
		if env.CAKey.IsZero() {
			return nil, errors.New("Env.CAKey is required")
		}
		ttl := p.duration("ttl", 10*time.Minute)
		idle := p.duration("idle", 2*time.Minute)
		maxPer := p.intVal("maxperprincipal", 0)
		reqauth, aerr := ParseRequestAuthMode(p.str("reqauth", "sig"))
		if aerr != nil {
			return nil, aerr
		}
		mode, merr := ParseRevokeCheckMode(p.str("revokecheck", "off"))
		if merr != nil {
			return nil, merr
		}
		sweepEvery := p.duration("revokesweep", 0)
		if p.err != nil {
			return nil, p.err
		}
		if maxPer < 0 {
			return nil, fmt.Errorf("maxperprincipal must be >= 0, got %d", maxPer)
		}
		if mode != RevokeCheckOff && env.Revoker == nil {
			return nil, fmt.Errorf("revokecheck=%v needs Env.Revoker", mode)
		}
		if _, set := sc.Params["revokesweep"]; set {
			if mode != RevokeCheckSweep {
				return nil, fmt.Errorf("revokesweep is only valid with revokecheck=sweep, got revokecheck=%v", mode)
			}
			if sweepEvery <= 0 {
				return nil, fmt.Errorf("revokesweep must be positive, got %v", sweepEvery)
			}
		}
		var err error
		mgr, err = NewSessionManager(env.CAKey, ttl, idle, env.Now,
			WithMaxPerPrincipal(maxPer),
			WithRequestAuth(reqauth),
			WithRevocationChecks(env.Revoker, mode, sweepEvery))
		if err != nil {
			return nil, err
		}
	}
	return NewSession(mgr)
}
