package middleware

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/paillier"
	"dltprivacy/internal/zkp"
)

// Built-in stage names, the core vocabulary of Config. The full vocabulary
// is the stage registry (see registry.go and RegisteredStages): the privacy
// stages zkproof, anoncred, attest, and aggregate register themselves the
// same way and compose under the same validation engine.
const (
	StageSession   = "session"
	StageAuthn     = "authn"
	StageEncrypt   = "encrypt"
	StageAudit     = "audit"
	StageRateLimit = "ratelimit"
	StageRetry     = "retry"
	StageBreaker   = "breaker"
	StageBatch     = "batch"
)

// ErrBadConfig is returned (wrapped) for every configuration rejected at
// construction time.
var ErrBadConfig = errors.New("middleware: invalid pipeline configuration")

// StageConfig names one stage and its parameters. Parameter values are
// strings so configurations can come verbatim from flags or files:
//
//	session    — ttl (duration, default 10m), idle (duration, default 2m),
//	             maxperprincipal (default 0 = unlimited; > 0 caps live
//	             sessions per principal, evicting the oldest on overflow),
//	             reqauth (sig|mac, default sig; mac authenticates
//	             steady-state session requests with a per-session HMAC key
//	             handed out in the grant instead of a per-request ECDSA
//	             signature), revokecheck (off|resolve|sweep, default off;
//	             anything but off requires Env.Revoker), revokesweep
//	             (duration, default 30s; the sweep-mode interval, only
//	             valid with revokecheck=sweep)
//	authn      — (no parameters)
//	encrypt    — keyttl (duration, default 0 = fresh data key per request;
//	             > 0 caches the wrapped channel key per epoch; members come
//	             from Env.Directory)
//	audit      — observer (default "gateway"), auditasync (ring depth,
//	             default 0 = record synchronously; > 0 moves leakage-log
//	             recording onto a bounded async ring off the submit path,
//	             shedding — counted — when full)
//	ratelimit  — rate (tokens/sec, default 100), burst (default 10)
//	retry      — attempts (default 3), backoff (duration, default 5ms)
//	breaker    — threshold (default 5), cooldown (duration, default 1s)
//	batch      — size (default 8), groupseal (on|off, default off; on
//	             buckets buffered submissions per (channel, epoch) and
//	             seals each group with one AEAD invocation under the
//	             encrypt stage's cached epoch key — requires encrypt with
//	             keyttl > 0)
//	zkproof    — mode (only "range"), bits (range width, default 32),
//	             channel (gate only this channel; default all)
//	anoncred   — mode (only "present"), attrs ("+"-separated attribute
//	             set), scope (presentation context), require (on|off,
//	             default on)
//	attest     — mode (only "tee"), bind (input|output|off, default input)
//	aggregate  — mode (only "paillier"), size (group size, default 8)
//
// Parameters outside a stage's declared vocabulary are rejected at
// validation time: a typoed knob fails construction, it is never silently
// ignored.
type StageConfig struct {
	Name   string
	Params map[string]string
}

// Config is a declarative pipeline: an ordered stage list assembled and
// validated by Build, plus the ordering topology the gateway fronts.
type Config struct {
	Stages []StageConfig

	// Shards declares the ordering topology the gateway expects: 0 accepts
	// any backend (unsharded deployments), > 0 requires the gateway's
	// ordering backend to be an ordering.ShardedBackend with exactly that
	// many shards. Like stage parameters, a mismatch fails at construction,
	// before any traffic.
	Shards int
	// ShardPins routes the named channels to explicit shard indices,
	// overriding consistent hashing — the knob for hot channels that should
	// own a shard. Requires Shards > 0; every index must be in [0, Shards).
	ShardPins map[string]int

	// Codec is kept under the name the repository benchmark calls: "" and
	// "binary" both mean the one request framing (the 0xDC frame); any
	// other value, "json" included, is ErrBadConfig.
	Codec string

	// Trace configures sampled request tracing on the gateway: "" or
	// "off" disables it, a positive integer N samples one in every N
	// submissions into a bounded in-memory ring served at /tracez.
	// Requests arriving with a wire-carried trace ID are always recorded
	// regardless of the sample rate. The unsampled path costs one atomic
	// increment; tracing off costs one nil check.
	Trace string

	// TimingSample configures sampled per-stage timing: "" or "full"
	// (the default) times every request — exact StageStats sums and
	// latency histograms. A positive integer N times one in every N
	// requests: sampled-out requests skip the two monotonic-clock reads
	// and three atomic updates per stage frame, while per-stage call and
	// error counters stay exact and traced requests are always fully
	// timed. The knob for gateways chasing sub-microsecond amortized
	// submit costs, where the instrumentation reads are a measurable
	// fraction of the budget; see StageStats for the sampled semantics.
	TimingSample string
}

// Env carries the shared dependencies stages draw on. Zero fields default
// where possible; stages that need a missing dependency fail Build.
type Env struct {
	// CAKey is the pinned consortium CA verification key (authn, session).
	CAKey dcrypto.PublicKey
	// Sessions overrides the session stage's manager; when nil the stage
	// builds its own from CAKey and the ttl/idle parameters.
	Sessions *SessionManager
	// Revoker is the revocation plane (session revocation checks, envelope
	// member exclusion, the gateway's revocation.notify topic). Required
	// when the session stage sets revokecheck to anything but "off". A
	// RevocationSource here is subscribed by the gateway so revocations
	// propagate on push.
	Revoker Revoker
	// Directory resolves channel membership keys (encrypt).
	Directory Directory
	// Log receives leakage observations (audit).
	Log *audit.Log
	// Now overrides the time source (ratelimit, breaker, authn); tests
	// inject a fake clock here.
	Now func() time.Time
	// Sleep overrides the backoff sleeper (retry).
	Sleep func(time.Duration)

	// AnonCredKey is the anonymous-credential issuer's attribute
	// verification key (anoncred stage): presentations are checked
	// against it.
	AnonCredKey zkp.Point
	// Attestation pins the TEE trust anchors the attest stage verifies
	// against: the manufacturer key and the expected program measurement.
	Attestation *AttestationPolicy
	// Aggregator is the collector's Paillier public key (aggregate
	// stage): submissions are homomorphically combined under it.
	Aggregator *paillier.PublicKey
}

// params is the shared, registry-level parameter validator every stage
// constructor draws on: typed accessors with error accumulation. Messages
// carry no stage prefix — the build engine wraps every parameter error
// uniformly as "stage <name>: <err>" under ErrBadConfig, so each validator
// exists exactly once instead of being re-spelled per stage.
type params struct {
	m   map[string]string
	err error
}

func (p *params) str(key, def string) string {
	v, ok := p.m[key]
	if !ok || v == "" {
		return def
	}
	return v
}

func (p *params) intVal(key string, def int) int {
	v, ok := p.m[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("param %s=%q is not an integer", key, v)
	}
	return n
}

func (p *params) floatVal(key string, def float64) float64 {
	v, ok := p.m[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("param %s=%q is not a number", key, v)
	}
	return f
}

func (p *params) duration(key string, def time.Duration) time.Duration {
	v, ok := p.m[key]
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("param %s=%q is not a duration", key, v)
	}
	return d
}

// enum returns the value of key constrained to the allowed set, recording
// an error (and returning the default) on anything else.
func (p *params) enum(key, def string, allowed ...string) string {
	v := p.str(key, def)
	for _, a := range allowed {
		if v == a {
			return v
		}
	}
	if p.err == nil {
		p.err = fmt.Errorf("param %s=%q must be one of %s", key, p.m[key], strings.Join(allowed, "|"))
	}
	return def
}

// Build assembles and validates the configured chain around the terminal
// handler. Every misconfiguration — unknown stage, duplicate stage, bad
// parameter, ordering violation — is reported here, before any traffic.
func (c Config) Build(env Env, terminal Handler) (*Chain, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	stages := make([]Stage, 0, len(c.Stages))
	for _, sc := range c.Stages {
		s, err := buildStage(sc, env)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		stages = append(stages, s)
	}
	// Group seal wires the batch stage to the encrypt stage's epoch key
	// cache: encrypt defers the per-request seal (tagging requests with
	// their epoch key) and batch seals whole (channel, epoch) groups with
	// one AEAD invocation. The wiring is validated here, before traffic —
	// a groupseal batch without a cached-key encrypt stage has no epoch
	// key table to amortize.
	var groupBatch *Batch
	for i, s := range stages {
		if b, ok := s.(*Batch); ok && c.Stages[i].Params["groupseal"] == "on" {
			groupBatch = b
		}
	}
	if groupBatch != nil {
		var enc *Encrypt
		for _, s := range stages {
			if e, ok := s.(*Encrypt); ok {
				enc = e
			}
		}
		if enc == nil {
			return nil, fmt.Errorf("%w: batch groupseal=on needs an encrypt stage upstream", ErrBadConfig)
		}
		if enc.keyTTL <= 0 {
			return nil, fmt.Errorf("%w: batch groupseal=on needs encrypt keyttl > 0 (the epoch key cache the group seal amortizes)", ErrBadConfig)
		}
		enc.deferGroupSeal()
		groupBatch.bindEncrypt(enc)
	}
	chain := NewChain(terminal, stages...)
	if every, err := c.timingEvery(); err != nil {
		return nil, err
	} else if every > 1 {
		chain.setTimingSample(every)
	}
	return chain, nil
}

// validate is the generic ordering engine: it walks the configured stages
// and enforces each one's registered constraints — conflicts, pairwise
// precedence (after/before), follows-one-of requirements, and terminal
// placement — instead of a hand-maintained rule chain. The operator-facing
// rejection messages are exactly the ones the pre-registry validator
// produced.
func (c Config) validate() error {
	if len(c.Stages) == 0 {
		return fmt.Errorf("%w: empty stage list", ErrBadConfig)
	}
	pos := make(map[string]int, len(c.Stages))
	for i, sc := range c.Stages {
		def := lookupStage(sc.Name)
		if def == nil {
			return fmt.Errorf("%w: unknown stage %q", ErrBadConfig, sc.Name)
		}
		if prev, dup := pos[sc.Name]; dup {
			return fmt.Errorf("%w: stage %q configured twice (positions %d and %d)", ErrBadConfig, sc.Name, prev, i)
		}
		pos[sc.Name] = i
		for key := range sc.Params {
			if !def.allowsParam(key) {
				return fmt.Errorf("%w: stage %s: unknown param %q (known params: %s)",
					ErrBadConfig, sc.Name, key, strings.Join(def.paramNames(), ", "))
			}
		}
	}
	// Conflicts first: a mutually-exclusive pair is a clearer diagnosis
	// than whichever ordering rule the pair happens to violate too.
	for _, sc := range c.Stages {
		for _, cf := range lookupStage(sc.Name).conflicts {
			if _, present := pos[cf.other]; present {
				return fmt.Errorf("%w: %q conflicts with %q: %s", ErrBadConfig, sc.Name, cf.other, cf.why)
			}
		}
	}
	for i, sc := range c.Stages {
		def := lookupStage(sc.Name)
		for _, r := range def.after {
			if oi, present := pos[r.other]; present && oi > i {
				return fmt.Errorf("%w: %q must precede %q: %s", ErrBadConfig, r.other, sc.Name, r.why)
			}
		}
		for _, r := range def.before {
			if oi, present := pos[r.other]; present && oi < i {
				return fmt.Errorf("%w: %q must precede %q: %s", ErrBadConfig, sc.Name, r.other, r.why)
			}
		}
		if len(def.follows) > 0 && !followSatisfied(c.Stages[:i], def.follows) {
			return fmt.Errorf("%w: %q needs %s before it: %s",
				ErrBadConfig, sc.Name, quotedList(def.follows, " or "), def.followWhy)
		}
	}
	for i, sc := range c.Stages {
		if def := lookupStage(sc.Name); def.terminal && i != len(c.Stages)-1 {
			return fmt.Errorf("%w: %q must be the final stage (%s)", ErrBadConfig, sc.Name, def.terminalWhy)
		}
	}
	if c.Codec != "" && c.Codec != CodecBinary {
		return fmt.Errorf("%w: unknown codec %q (the wire format is %s)", ErrBadConfig, c.Codec, CodecBinary)
	}
	if _, err := c.traceEvery(); err != nil {
		return err
	}
	if _, err := c.timingEvery(); err != nil {
		return err
	}
	return c.validateSharding()
}

// timingEvery parses the TimingSample knob into a 1-in-N timing sample
// rate (0 = time every request).
func (c Config) timingEvery() (int, error) {
	switch c.TimingSample {
	case "", "full":
		return 0, nil
	}
	n, err := strconv.Atoi(c.TimingSample)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%w: timingsample must be \"full\" or a positive sample divisor, got %q", ErrBadConfig, c.TimingSample)
	}
	return n, nil
}

// traceEvery parses the Trace knob into a 1-in-N sample rate (0 = off).
func (c Config) traceEvery() (int, error) {
	switch c.Trace {
	case "", "off":
		return 0, nil
	}
	n, err := strconv.Atoi(c.Trace)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("%w: trace must be \"off\" or a positive sample divisor, got %q", ErrBadConfig, c.Trace)
	}
	return n, nil
}

// validateSharding enforces the ordering-topology knobs: a negative shard
// count is meaningless, and every pin must name a shard inside the topology.
func (c Config) validateSharding() error {
	if c.Shards < 0 {
		return fmt.Errorf("%w: shards must be >= 0, got %d", ErrBadConfig, c.Shards)
	}
	if len(c.ShardPins) > 0 && c.Shards == 0 {
		return fmt.Errorf("%w: shard pins need a sharded topology (shards > 0)", ErrBadConfig)
	}
	for channel, shard := range c.ShardPins {
		if shard < 0 || shard >= c.Shards {
			return fmt.Errorf("%w: pin %q -> shard %d outside [0, %d)", ErrBadConfig, channel, shard, c.Shards)
		}
	}
	return nil
}

// followSatisfied reports whether any earlier stage fills one of the
// required roles, either by name or through its countsAs declaration (an
// anoncred stage counts as authn: it authenticates the request).
func followSatisfied(earlier []StageConfig, roles []string) bool {
	for _, sc := range earlier {
		for _, role := range roles {
			if sc.Name == role {
				return true
			}
			if def := lookupStage(sc.Name); def != nil && def.countsAs == role {
				return true
			}
		}
	}
	return false
}

// buildStage instantiates one named stage through its registered
// constructor, wrapping parameter and constructor errors uniformly.
func buildStage(sc StageConfig, env Env) (Stage, error) {
	def := lookupStage(sc.Name)
	if def == nil {
		return nil, fmt.Errorf("unknown stage %q", sc.Name)
	}
	p := &params{m: sc.Params}
	s, err := def.build(p, sc, env)
	if p.err != nil {
		err = p.err
	}
	if err != nil {
		return nil, fmt.Errorf("stage %s: %w", sc.Name, err)
	}
	return s, nil
}
