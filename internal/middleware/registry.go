package middleware

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The stage registry replaces the closed switch that Config.validate and
// buildStage used to hand-maintain: every stage — built-in or added later —
// registers a constructor plus declarative metadata, and the config engine
// walks the registry generically. The facts a stage needs, refuses and gives,
// and its parameter vocabulary, live next to the stage they describe instead
// of inside one central validator, following the aspect-oriented middleware
// model of keeping each cross-cutting concern a self-contained pluggable
// module.

// paramSpec declares one parameter a stage accepts. Config rejects
// parameters outside a stage's declared vocabulary at validation time, so a
// typoed knob fails construction instead of being silently ignored.
type paramSpec struct {
	key   string
	usage string
}

// fact is one thing the stages earlier in a pipeline have done to a
// request's information. The vocabulary is closed and monotone: every fact
// is false when a pipeline starts, a stage can only make one true, and
// nothing makes one false again — so a pipeline is ordered correctly when
// each stage, in turn, finds the facts it needs true and none it refuses.
type fact uint8

const (
	factPrincipal fact = iota // the submitter is verified
	factSealed                // the payload is an envelope only members open
	factHeld                  // requests are held and released past every later stage; every stage refuses it
	numFacts
)

var factNames = [numFacts]string{"principal", "sealed", "held"}

func (f fact) String() string { return factNames[f] }

// factRule is one declared fact with the operator-facing reason the rule
// exists, which Config.validate puts in the refusal it explains.
type factRule struct {
	fact fact
	why  string
}

// stageDef is a registry entry: the stage's name (also its telemetry label
// in StageStats and the confmw_stage_latency_seconds histograms), its
// parameter vocabulary, the facts it declares, and the constructor the
// build engine invokes.
type stageDef struct {
	name   string
	desc   string
	params []paramSpec

	// needs: facts an earlier stage must have made true.
	needs []factRule
	// refuses: facts no earlier stage may have made true. Every stage
	// refuses factHeld; a stage declares it only to give its own reason.
	refuses []factRule
	// gives: facts this stage makes true. A given fact's why is what a
	// later stage that refuses it without a reason of its own is told.
	gives []factRule
	// partial says why sc configures the stage to pass on requests it did
	// not check, so that it gives none of its facts ("" or nil: it does
	// not). The reason joins the refusal of a later stage that needs them.
	partial func(sc StageConfig) string

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

// registerStage installs a stage definition, rejecting duplicates and
// malformed definitions. Built-ins register through mustRegisterStage at
// init; the error form exists so registration failures are testable.
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
	return nil
}

// mustRegisterStage is the init-time form: a bad built-in definition is a
// programming error, not a runtime condition.
func mustRegisterStage(def stageDef) {
	if err := registerStage(def); err != nil {
		panic(err)
	}
}

func lookupStage(name string) *stageDef {
	registryMu.RLock()
	defer registryMu.RUnlock()
	return registry[name]
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
// per stage with its description, one with the facts it declares, then its
// parameter vocabulary.
func StageUsage() string {
	var b strings.Builder
	for _, name := range RegisteredStages() {
		def := lookupStage(name)
		if def == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %s\n", def.name, def.desc)
		fmt.Fprintf(&b, "  %-10s %s\n", "", def.declared())
		for _, ps := range def.params {
			fmt.Fprintf(&b, "    %-12s %s\n", ps.key, ps.usage)
		}
	}
	return b.String()
}

// declared renders a stage's facts: "needs principal; gives sealed".
func (d *stageDef) declared() string {
	var parts []string
	for _, decl := range []struct {
		verb  string
		rules []factRule
	}{{"needs", d.needs}, {"refuses", d.refuses}, {"gives", d.gives}} {
		if len(decl.rules) == 0 {
			continue
		}
		names := make([]string, len(decl.rules))
		for i, r := range decl.rules {
			names[i] = r.fact.String()
		}
		parts = append(parts, decl.verb+" "+strings.Join(names, ", "))
	}
	if len(parts) == 0 {
		return "no ordering rules"
	}
	return strings.Join(parts, "; ")
}

// giversOf renders the registered stages that give f, for the refusal of a
// stage that needs it: `"anoncred" or "session"`.
func giversOf(f fact) string {
	var names []string
	registryMu.RLock()
	for name, def := range registry {
		for _, r := range def.gives {
			if r.fact == f {
				names = append(names, strconv.Quote(name))
			}
		}
	}
	registryMu.RUnlock()
	sort.Strings(names)
	if len(names) < 2 {
		return strings.Join(names, "")
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// ParseStages parses the compact textual pipeline form used by the
// cmd/gateway -stages flag: stage specs separated by "|", each either
// NAME, NAME=MODE (shorthand for NAME(mode=MODE)), or
// NAME(key=value,key=value,...). Values keep everything after the first
// "=", so composite values like attrs=role=member survive. Unknown stage
// names are rejected here with the registered-stage list, keeping new
// stages discoverable from the CLI, and so is a parameter given twice in
// one spec; everything else (ordering, parameter values) is validated by
// Config.build.
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

// ---------------------------------------------------------------------------
// Built-in stage definitions. Each entry declares the facts the package
// documentation's table lists, with the operator-facing rationale of each
// rule.

const whyOneCollector = "one terminal collector owns the held-request release path"

func init() {
	mustRegisterStage(stageDef{
		name: StageSession,
		desc: "persistent sessions: verify the certificate once, then token/MAC requests",
		params: []paramSpec{
			{"ttl", "session lifetime (duration, default 10m)"},
			{"idle", "idle timeout (duration, default 2m)"},
			{"maxperprincipal", "live-session cap per principal (default 0 = unlimited)"},
			{"reqauth", "request auth: mac, the only value (the default)"},
			{"revokecheck", "resolve, the only value, kept for compatibility: revocation is checked whenever Env.Revoker is set"},
		},
		gives: []factRule{{fact: factPrincipal}},
		build: buildSessionStage,
	})
	mustRegisterStage(stageDef{
		name:  StageAuthn,
		desc:  "pass-through, kept for compatibility: certificates are verified at session open",
		needs: []factRule{{factPrincipal, "it checks nothing itself: a certificate is verified at session open"}},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) { return authnStage{}, nil },
	})
	mustRegisterStage(stageDef{
		name: StageEncrypt,
		desc: "seal payloads into channel-member envelopes (Env.Directory)",
		params: []paramSpec{
			{"keyttl", "wrapped-key cache lifetime (duration, default 0 = fresh key per request)"},
		},
		needs: []factRule{{factPrincipal, "never seal an envelope for an unverified submitter"}},
		gives: []factRule{{fact: factSealed}},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			ttl := p.duration("keyttl", 0)
			if p.err != nil {
				return nil, p.err
			}
			if ttl < 0 {
				return nil, fmt.Errorf("keyttl must be >= 0, got %v (0 disables the key cache)", ttl)
			}
			if ttl > 0 {
				return newCachedEncrypt(env.Directory, ttl, env.Now)
			}
			return newEncrypt(env.Directory)
		},
	})
	mustRegisterStage(stageDef{
		name: StageAudit,
		desc: "leakage accounting: record what the observer could see (Env.Log)",
		params: []paramSpec{
			{"observer", `leakage-log observer name (default "gateway")`},
			{"auditasync", "accepted for compatibility, any value >= 0: recording is always inline"},
		},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			observer := p.str("observer", "gateway")
			depth := p.intVal("auditasync", 0)
			if p.err != nil {
				return nil, p.err
			}
			if depth < 0 {
				return nil, fmt.Errorf("auditasync must be >= 0, got %d (every value records inline)", depth)
			}
			return newAudit(env.Log, observer)
		},
	})
	mustRegisterStage(stageDef{
		name: StageBatch,
		desc: "write-combine accepted submissions into downstream groups",
		params: []paramSpec{
			{"size", "group size (default 8)"},
			{"groupseal", "seal each (channel, epoch) group with one AEAD invocation: on|off (default off; needs encrypt keyttl > 0)"},
		},
		refuses: []factRule{{factHeld, whyOneCollector}},
		gives:   []factRule{{factHeld, "any later stage would be skipped for batched requests"}},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			p.enum("groupseal", "off", "on", "off")
			if p.err != nil {
				return nil, p.err
			}
			return newBatch(p.intVal("size", 8))
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
		if v := p.str("reqauth", "mac"); v != "mac" {
			return nil, fmt.Errorf("reqauth=%q: session requests are authenticated by MAC only (reqauth=mac, the default)", v)
		}
		revokeCheck, named := sc.Params["revokecheck"]
		if named && revokeCheck != "resolve" {
			return nil, fmt.Errorf("revokecheck=%q: revocation checking follows Env.Revoker, on whenever it is set; resolve, the only value, is kept for compatibility", revokeCheck)
		}
		if p.err != nil {
			return nil, p.err
		}
		if maxPer < 0 {
			return nil, fmt.Errorf("maxperprincipal must be >= 0, got %d", maxPer)
		}
		if named && env.Revoker == nil {
			return nil, errors.New("revokecheck=resolve needs Env.Revoker")
		}
		var err error
		mgr, err = NewSessionManager(env.CAKey, ttl, idle, env.Now,
			withMaxPerPrincipal(maxPer), withRevoker(env.Revoker))
		if err != nil {
			return nil, err
		}
	}
	return newSession(mgr)
}
