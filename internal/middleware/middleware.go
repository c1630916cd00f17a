package middleware

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/telemetry"
)

// Errors returned by the pipeline.
var (
	// ErrNotAuthenticated is returned when a stage that requires a
	// verified submitter runs on a request the authn stage has not passed.
	ErrNotAuthenticated = errors.New("middleware: request not authenticated")
	// ErrBadSignature is returned when the submitter signature does not
	// verify against the certified key.
	ErrBadSignature = errors.New("middleware: submitter signature invalid")
	// ErrBadMAC is returned when a token-bearing request's MAC is missing
	// or does not verify against the per-session key.
	ErrBadMAC = errors.New("middleware: request mac invalid")
	// ErrIdentityMismatch is returned when the certificate identity does
	// not match the request principal.
	ErrIdentityMismatch = errors.New("middleware: certificate identity does not match principal")
	// ErrRateLimited is returned when a principal exhausts its token
	// bucket.
	ErrRateLimited = errors.New("middleware: rate limit exceeded")
	// ErrCircuitOpen is returned while a backend's circuit breaker is
	// tripped.
	ErrCircuitOpen = errors.New("middleware: circuit open for backend")
	// ErrUnknownChannel is returned for a submission to a channel the
	// gateway's directory does not know, before it is ordered.
	ErrUnknownChannel = errors.New("middleware: channel not in the directory")
)

// Request is one client submission travelling through the chain. Stages
// annotate it in place: authn flips authenticated, encrypt replaces Payload
// with a sealed envelope, the terminal handler orders the transaction it
// builds from the request.
//
// The Request AppendWire decodes a frame into is borrowed from a pool, and
// recycled once its last holder lets go: AppendWire holds it for the call, and
// a stage that keeps a request past its Handle (batch, aggregate) takes a
// hold of its own and drops it when done (hold, drop). A stage that kept one
// without a hold would read a stranger's submission once the pool handed the
// struct on. A caller's own request is never pooled.
type Request struct {
	// Channel is the confidentiality domain the submission targets.
	Channel string
	// Principal is the submitting identity (must match Cert.Identity).
	Principal string
	// Backend names the platform backend the submission is destined for;
	// the circuit breaker keys its state by it.
	Backend string
	// Payload is the application content; plaintext at submission,
	// replaced by a marshalled Envelope once the encrypt stage runs.
	Payload []byte
	// Cert is the submitter's identity certificate issued by the
	// consortium CA, for the authn stage, which refuses a request without
	// one; nil on session traffic. A pointer, so a session request does not
	// carry a certificate's 136 bytes of zeroes.
	Cert *pki.Certificate
	// Sig is the submitter's signature over Digest().
	Sig dcrypto.Signature
	// SessionToken binds the request to an established gateway session so
	// the session stage authenticates it against the cached verified
	// principal instead of re-verifying the certificate. The token is not
	// part of Digest(): the MAC binds content to the session, the token
	// names the session. A request the gateway decoded off the wire whose
	// token named a live session carries that session's record instead,
	// and no SessionToken.
	SessionToken string
	// MAC authenticates a session request under the per-session HMAC key
	// from the SessionGrant: the only proof a token-bearing request is
	// checked for. Empty for sessionless (certificate + signature) traffic.
	// Set it with MACRequest after the payload is final.
	MAC []byte
	// Meta carries free-form annotations copied onto the transaction beside
	// the gateway's own (Gateway.order); stages annotate it in place.
	Meta map[string]string

	// TraceID carries a sampled request's trace identifier across process
	// boundaries: a client that received a traced response (or wants to
	// force tracing) sets it, the request frame propagates it, and the
	// gateway always records requests arriving with one. Zero
	// means "not traced" and lets the gateway's own sampler decide. Like
	// SessionToken it is not part of Digest(): it annotates delivery, not
	// content.
	TraceID uint64

	// TransportID names the connection the request arrived on: AppendWire
	// stamps it from the edge, never from the client. A session opened over
	// a connection is bound to it, and the session stage rejects its token
	// from any other TransportID with ErrSessionBound. Empty outside the
	// edge, where sessions stay unbound.
	TransportID string

	// holds counts who still holds a request AppendWire borrowed from the
	// pool; 0 on a caller's own request, which is never pooled. See drop.
	// Read and written only through sync/atomic's functions: an atomic.Int32
	// would make vet refuse the copies callers make of their own requests.
	holds int32
	// The seven flags sit together so they share one word; see payloadSum
	// for why the struct's size matters.
	//
	// authenticated and encrypted are set by the authn/session and encrypt
	// stages; enveloped, when the payload became one sealed envelope frame,
	// which order notes on the transaction (a deferred group seal does not).
	authenticated bool
	encrypted     bool
	enveloped     bool
	// untimed marks a request the chain's timing sampler skipped: every
	// instrumented frame still counts calls and errors exactly but reads
	// no clocks and observes no latency. Decided once per request at
	// execute — mixing timed and untimed frames inside one request would
	// corrupt the exclusive-time nesting protocol — and never set while
	// the request carries a trace.
	untimed bool
	// digestSet marks digestMemo as set; see digest.
	digestSet bool
	// channelKnown marks a Channel the decoder found the gateway may order
	// on (see channelName), so Gateway.order need not look it up again.
	channelKnown bool

	// sum memoises SHA-256(Payload) for payloadSum, keyed to the payload
	// it was taken of by backing array and length (sumOf, sumLen).
	sum    [32]byte
	sumOf  *byte
	sumLen int
	// digestMemo memoises Digest() for the stages a wire submission crosses;
	// see digest.
	digestMemo [32]byte

	// trace is the in-flight sampled trace, set by the gateway when the
	// request is sampled; stages record spans into it. Nil (the common
	// case) costs each stage one pointer check.
	trace *telemetry.Trace
	// downstreamNanos is instrument()'s scratch register for exclusive
	// timing: each instrumented frame zeroes it before invoking the stage
	// and adds its own inclusive time back for its parent, so a stage's
	// exclusive time is its inclusive time minus what its direct
	// downstream reported. Keeping it on the request avoids any per-call
	// allocation.
	downstreamNanos int64

	// nowStamp is the session stage's clock reading, as its offset from
	// chainEpoch, left on the request so downstream stages on the same
	// default clock (encrypt's epoch expiry check) reuse it instead of
	// reading the clock again; zero when there is none. Only a stage running
	// the default coarseNow clock writes or trusts it — a test-injected
	// clock never mixes with the stamp in either direction. An offset, not a
	// time.Time, so that the session below fits in the struct's size class.
	nowStamp time.Duration
	// session is the live session the wire decoder found the frame's token
	// to name (SessionManager.lookup), handed to the session stage so that a
	// submission looks its token up once; the request then carries no
	// SessionToken. Nil otherwise.
	session *session

	// groupKey is the cached (channel, epoch) key the encrypt stage
	// resolved in deferred group-seal mode: the payload stays plaintext
	// until the batch stage seals the whole group under it with one AEAD
	// invocation. Nil outside deferred mode.
	groupKey *channelKey
}

// wireRequests recycles the Requests AppendWire decodes frames into.
var wireRequests = sync.Pool{New: func() any { return new(Request) }}

// poisonDropped, set only by tests, takes the place of pooling at a request's
// last drop: it fills the request with garbage, so a holder that kept the
// request without a hold reads garbage rather than a stranger's submission.
var poisonDropped func(*Request)

// borrowRequest returns a zeroed request from the pool, held once: by the
// borrower, who drops it when done.
func borrowRequest() *Request {
	r := wireRequests.Get().(*Request)
	r.holds = 1 // not yet shared
	return r
}

// hold records that a stage keeps the request past its Handle's return; the
// stage drops it when done. A no-op on a caller's own request.
func (r *Request) hold() {
	if atomic.LoadInt32(&r.holds) > 0 {
		atomic.AddInt32(&r.holds, 1)
	}
}

// drop lets go of one hold. The last drop zeroes the request and returns it
// to the pool, whatever goroutine it runs on: a buffered member's own chain
// frames may still be unwinding while another connection's submission
// releases its group, so either side may be last. A no-op on a caller's own
// request.
func (r *Request) drop() {
	if atomic.LoadInt32(&r.holds) == 0 || atomic.AddInt32(&r.holds, -1) > 0 {
		return
	}
	if poisonDropped != nil {
		poisonDropped(r)
		return
	}
	*r = Request{}
	wireRequests.Put(r)
}

// requestDigestDomain separates request digests from every other hash in
// the library.
const requestDigestDomain = "middleware/request/v2"

// appendDigestPart appends HashConcat's part encoding: an 8-byte big-endian
// length, then the bytes. (appendLenPrefixed in codec.go is the uvarint wire
// form; the digest form must stay byte-identical to dcrypto.HashConcat.)
func appendDigestPart(b []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint64(b, uint64(len(s))), s...)
}

// Digest returns the canonical signed content of the request: channel,
// principal and backend length-prefixed, then the payload as its length and
// SHA-256 (the encoding of dcrypto.ConcatHasher.PartSum). Committing to the
// payload's hash instead of streaming its bytes binds every byte all the
// same, and lets the sum be computed once per payload and carried: the
// several digests one submission takes (the wire ID, the MAC or signature
// check, the audit observation, the ledger transaction's own digest) share
// it through payloadSum. The canonical form is therefore short whatever the
// payload — it is staged on the stack and hashed with one direct SHA-256
// call, allocating nothing (names long enough to outgrow the buffer spill
// to the heap and hash the same).
func (r *Request) Digest() [32]byte {
	var buf [256]byte
	b := appendDigestPart(buf[:0], requestDigestDomain)
	b = appendDigestPart(b, r.Channel)
	b = appendDigestPart(b, r.Principal)
	b = appendDigestPart(b, r.Backend)
	b = binary.BigEndian.AppendUint64(b, uint64(len(r.Payload)))
	sum := r.payloadSum()
	b = append(b, sum[:]...)
	return dcrypto.Hash(b)
}

// payloadSum returns SHA-256(r.Payload), hashing only when the memo is not
// of the current payload. The memo is keyed to the payload's backing array
// and length, so assigning or re-slicing Payload invalidates it with no
// reset to remember; sumOf is a real pointer, which keeps the array alive
// and its address from being reused while the memo stands. Bytes changed in
// place under an unchanged slice are not detected — the pipeline never does
// that (stages replace the payload), and a caller that does must assign
// Payload afresh.
//
// The memos (the sum's 48 bytes, the digest's 33) cost 81 bytes of the
// struct, which must stay within its 320-byte size class
// (TestRequestFitsItsSizeClass): the pool still allocates one whenever it
// runs dry, and every caller's own request is allocated.
func (r *Request) payloadSum() [32]byte {
	n := len(r.Payload)
	if n == 0 {
		return dcrypto.Hash(nil)
	}
	if r.sumOf != &r.Payload[0] || r.sumLen != n {
		r.setPayloadSum(r.Payload, dcrypto.Hash(r.Payload))
	}
	return r.sum
}

// setPayloadSum memoises sum as SHA-256 of the non-empty slice p, in force
// whenever p is the payload, and drops the digest memo, which was of the
// payload before. The encrypt stage calls it with the frame it is about to
// install, whose sum it gets cheaper than by hashing the frame.
func (r *Request) setPayloadSum(p []byte, sum [32]byte) {
	r.sum, r.sumOf, r.sumLen, r.digestSet = sum, &p[0], len(p), false
}

// digest is Digest for the stages (session, authn, audit): a submission
// needs its digest up to three times, and a wire submission's is taken once,
// by AppendWire, the memo's only writer. The memo is keyed to the payload
// memo: it stands only while that is of the current payload, so assigning
// Payload afresh retires it and setPayloadSum drops it. The aggregate
// vehicle, which rewrites Principal, drops it by hand.
func (r *Request) digest() [32]byte {
	if r.digestMemoed() {
		return r.digestMemo
	}
	return r.Digest()
}

// digestMemoed reports whether digestMemo is in force; see digest.
func (r *Request) digestMemoed() bool {
	n := len(r.Payload)
	return r.digestSet && r.sumLen == n && (n == 0 || r.sumOf == &r.Payload[0])
}

// id returns the hex form of the request digest, the submission identifier
// echoed to transport clients (batched submissions are acknowledged before
// a transaction ID exists).
func (r *Request) id() string {
	id := hexID(r.Digest())
	return string(id[:])
}

// hexID returns the characters of a request ID as an array: the submit path
// passes the identifier on (into the reply, into the leakage log) without
// ever needing it as a heap string.
func hexID(d [32]byte) [32]byte {
	var id [32]byte
	hex.Encode(id[:], d[:16])
	return id
}

// SignRequest signs the request digest with the submitter's key, filling
// Sig: the proof a sessionless request carries beside its certificate, for
// the authn stage. A token-bearing request is MAC'd instead (MACRequest).
// It must be called after the payload is final and before submission.
func SignRequest(r *Request, key *dcrypto.PrivateKey) error {
	d := r.Digest()
	sig, err := key.Sign(d[:])
	if err != nil {
		return fmt.Errorf("middleware: sign request: %w", err)
	}
	r.Sig = sig
	return nil
}

// MACRequest authenticates the request under a session MAC key from a
// SessionGrant, filling MAC. Like SignRequest it must be called after the
// payload is final and before submission; unlike SignRequest it is a pure
// symmetric operation, ~100x cheaper than an ECDSA signature.
func MACRequest(r *Request, macKey []byte) {
	d := r.Digest()
	tag := dcrypto.MAC(macKey, d[:])
	r.MAC = tag[:]
}

// Handler is the continuation a stage invokes to pass the request
// downstream.
type Handler func(ctx context.Context, req *Request) error

// Stage is one interceptor in the pipeline. Handle may inspect or mutate
// the request, short-circuit by returning without calling next, call next
// once, or hold the request and hand it on later with its group (batch).
type Stage interface {
	Name() string
	Handle(ctx context.Context, req *Request, next Handler) error
}

// Optional stage hooks. A stage carries its own cross-cutting behaviour by
// implementing any of these beside Stage; the gateway discovers them by
// ranging over the built chain, never by stage name or concrete type.
type (
	// stageFlusher is a stage that holds submissions past Handle's return
	// (batch, aggregate). Gateway.Flush calls the hooks in reverse chain
	// order: the terminal holding stage releases first.
	stageFlusher interface {
		Flush(ctx context.Context) error
	}
	// memberKeyer is a stage that wraps channel keys to member identities
	// (encrypt): revocation excludes a member.
	memberKeyer interface {
		RevokeMember(identity string)
	}
	// sessionHolder is the stage fronting the session manager the gateway
	// serves session.open / session.close through.
	sessionHolder interface{ Manager() *SessionManager }
	// verifierHolder is a stage that checks certificates through a
	// pki.Verifier, whose counts the gateway also exports summed.
	verifierHolder interface{ verifier() *pki.Verifier }
	// statSource is a stage that exports numbers; see statRow.
	statSource interface{ statRows() []statRow }
)

// statRow declares one exported number exactly once: its /metrics family
// (name, help, counter or gauge), how to read it, and — set, nil for a
// number on /metrics only — where it lands in the /statusz snapshot.
// Gateway.Stats and Gateway.RegisterMetrics are each one loop over the
// gateway's rows and every statSource stage's, so the two views cannot
// drift and a new counter is one atomic field plus one row beside it. A
// labelled family is one row per series, each with its labels; rows whose
// set adds rather than stores sum into one /statusz field.
type statRow struct {
	name, help string
	kind       rowKind
	load       func() uint64
	set        func(*GatewayStats, uint64)
	labels     []telemetry.Label
}

// rowKind tells a monotonic count from a point-in-time value.
type rowKind bool

const (
	counter rowKind = false
	gauge   rowKind = true
)

// StageStats is a snapshot of one stage's counters.
//
// Nanos is inclusive of downstream stages (the chain is measured from each
// stage's entry), which is what the incremental benchmarks difference to
// get per-stage overhead. Inclusive sums are misleading for a holding
// stage: batch invokes its downstream zero times at submission and the
// whole group's worth at release, under the releasing call, whose Nanos
// then include every member's downstream time. ExclusiveNanos is the
// complementary measure — time spent in the stage itself, minus everything
// its direct downstream reported — and is what the per-stage latency
// histograms observe, so Σ ExclusiveNanos over stages ≈ wall time.
//
// Under sampled timing (Config.TimingSample) Calls and Errors stay exact
// while Nanos, ExclusiveNanos, and the latency histograms cover only the
// timed 1-in-N subset — multiply by the sample divisor to estimate
// totals, or read the histogram quantiles directly (sampling preserves
// the latency distribution, not the sums).
type StageStats struct {
	Name           string
	Calls          uint64
	Errors         uint64
	Nanos          uint64
	ExclusiveNanos uint64
}

// stageMetrics instruments one stage position in the chain.
type stageMetrics struct {
	name   string
	calls  atomic.Uint64
	errors atomic.Uint64
	nanos  atomic.Uint64
	excl   atomic.Uint64
	// lat observes per-call exclusive latency (nanoseconds) into fixed
	// atomic buckets; registered as confmw_stage_latency_seconds.
	lat *telemetry.Histogram
}

// Chain is an immutable composition of stages ending in a terminal handler.
// It is safe for concurrent use when its stages are.
type Chain struct {
	stages  []Stage
	metrics []*stageMetrics
	head    Handler

	// timingEvery > 1 enables sampled stage timing: one in every
	// timingEvery requests runs fully instrumented, the rest skip the
	// clock reads and latency observations (calls and errors stay exact).
	// 0 or 1 — the default for every directly-constructed chain — times
	// every request. Set once via setTimingSample before traffic.
	timingEvery uint64
	timingCtr   atomic.Uint64
}

// newChain composes stages (outermost first) around the terminal handler.
// Ordering is the caller's responsibility; Config.build is the validated
// front door.
func newChain(terminal Handler, stages ...Stage) *Chain {
	if terminal == nil {
		terminal = func(context.Context, *Request) error { return nil }
	}
	c := &Chain{stages: stages}
	h := terminal
	c.metrics = make([]*stageMetrics, len(stages))
	for i := len(stages) - 1; i >= 0; i-- {
		m := &stageMetrics{name: stages[i].Name()}
		m.lat = telemetry.NewHistogram(
			"confmw_stage_latency_seconds",
			"Per-call exclusive stage latency (time in the stage itself, downstream subtracted).",
			telemetry.LatencyBounds, telemetry.NanosPerSecond,
			telemetry.L("stage", m.name),
		)
		c.metrics[i] = m
		h = instrument(stages[i], m, h)
	}
	c.head = h
	return c
}

// instrument wraps one stage with its counters, exclusive-latency
// histogram, and span recording. The exclusive-time protocol uses
// req.downstreamNanos as a scratch register instead of wrapping next in a
// fresh closure, keeping the instrumented path allocation-free: each frame
// saves its parent's accumulator, zeroes it, runs the stage (downstream
// frames add their inclusive time into it — batch's zero invocations
// leave it zero), and restores parent + own inclusive time on the way out.
// chainEpoch anchors instrument()'s timestamps: both edges of a frame are
// read as time.Since(chainEpoch), which is a bare monotonic-clock read —
// about half the cost of time.Now, which also reads the wall clock — and
// the rare sampled-trace path reconstructs the exact span start as
// chainEpoch.Add(startOff).
var chainEpoch = time.Now()

// coarseNow is the hot paths' default time source: the current time
// rebuilt from one monotonic-clock read against the process epoch, about
// half the cost of time.Now. Its monotonic reading — what expiry, idle,
// and freshness comparisons between two of its values actually use — is
// exact; only the wall reading can drift from the system clock, by
// whatever steps land after process start. The session and cached-encrypt
// stages default to it when no clock is injected.
func coarseNow() time.Time { return chainEpoch.Add(time.Since(chainEpoch)) }

func instrument(s Stage, m *stageMetrics, next Handler) Handler {
	return func(ctx context.Context, req *Request) error {
		m.calls.Add(1)
		if req.untimed {
			// Sampled-out request: exact calls/errors, no clocks, no
			// latency observation, no exclusive-time bookkeeping. The
			// whole request is untimed (decided at execute), so no timed
			// frame ever reads the downstreamNanos this frame skips.
			err := s.Handle(ctx, req, next)
			if err != nil {
				m.errors.Add(1)
			}
			return err
		}
		parent := req.downstreamNanos
		req.downstreamNanos = 0
		startOff := time.Since(chainEpoch)
		err := s.Handle(ctx, req, next)
		incl := int64(time.Since(chainEpoch) - startOff)
		excl := incl - req.downstreamNanos
		if excl < 0 {
			excl = 0
		}
		req.downstreamNanos = parent + incl
		m.nanos.Add(uint64(incl))
		m.excl.Add(uint64(excl))
		m.lat.Observe(uint64(excl))
		if err != nil {
			m.errors.Add(1)
		}
		if tr := req.trace; tr != nil {
			tr.AddSpan(m.name, chainEpoch.Add(startOff), time.Duration(incl), time.Duration(excl), err)
		}
		return err
	}
}

// execute runs the request through the chain.
func (c *Chain) execute(ctx context.Context, req *Request) error {
	if req == nil {
		return errors.New("middleware: nil request")
	}
	if req.Channel == "" || req.Principal == "" {
		return errors.New("middleware: request needs channel and principal")
	}
	// Per-request timing decision: a traced request is always fully
	// timed (its spans need real timestamps); otherwise one in every
	// timingEvery requests is. Reset unconditionally — callers reuse
	// request structs across submissions.
	if c.timingEvery > 1 {
		req.untimed = req.trace == nil && c.timingCtr.Add(1)%c.timingEvery != 0
	} else {
		req.untimed = false
	}
	return c.head(ctx, req)
}

// setTimingSample enables 1-in-every sampled stage timing on the chain.
// It must be called before traffic; Config.build is the validated front
// door (the TimingSample knob).
func (c *Chain) setTimingSample(every int) {
	if every > 1 {
		c.timingEvery = uint64(every)
	}
}

// stats snapshots per-stage counters in chain order.
func (c *Chain) stats() []StageStats {
	out := make([]StageStats, len(c.metrics))
	for i, m := range c.metrics {
		out[i] = StageStats{
			Name:           m.name,
			Calls:          m.calls.Load(),
			Errors:         m.errors.Load(),
			Nanos:          m.nanos.Load(),
			ExclusiveNanos: m.excl.Load(),
		}
	}
	return out
}

// registerMetrics registers the chain's per-stage telemetry into reg:
// confmw_stage_calls_total, confmw_stage_errors_total, and the
// confmw_stage_latency_seconds exclusive-latency histograms, all labelled
// by stage name.
func (c *Chain) registerMetrics(reg *telemetry.Registry) error {
	for _, m := range c.metrics {
		if err := reg.Register(m.lat); err != nil {
			return err
		}
		if err := reg.RegisterFuncs([]telemetry.FuncMetric{
			{Name: "confmw_stage_calls_total", Help: "Stage invocations.", Load: m.calls.Load},
			{Name: "confmw_stage_errors_total", Help: "Stage invocations that returned an error.", Load: m.errors.Load},
		}, telemetry.L("stage", m.name)); err != nil {
			return err
		}
	}
	return nil
}
