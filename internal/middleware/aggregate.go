package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"dltprivacy/internal/paillier"
)

// StageAggregate is the terminal homomorphic-aggregation stage: same-
// channel submissions carry Paillier ciphertexts that are combined into
// one running encrypted sum, and only the aggregate travels downstream.
// Individual contributions never reach the ordering service — the
// collector (Env.Aggregator's key holder) can decrypt only the total.
const StageAggregate = "aggregate"

// MetaAggregate records the scheme and contribution count on a released
// aggregate transaction.
const MetaAggregate = "aggregate"

// AggregatePrincipal is the creator recorded on released aggregate
// transactions: individual contributors never appear on the ledger.
const AggregatePrincipal = "aggregated"

// aggregandScheme versions the aggregand wire format.
const aggregandScheme = "paillier/v1"

// maxAggregandBytes caps the ciphertext size: 8192-bit moduli are far
// beyond any key this repo generates.
const maxAggregandBytes = 2048

// Errors returned by the aggregate stage.
var (
	// ErrBadAggregand is returned when a submission payload is not a
	// well-formed Paillier aggregand for the collector's key.
	ErrBadAggregand = errors.New("middleware: aggregate: payload is not a paillier aggregand")
	// ErrAggregateRelease wraps failures from releasing a completed
	// aggregate downstream. Like ErrBatchRelease it is deliberately
	// permanent: the combined contributions were already acknowledged, so
	// re-running the stage would double-count them.
	ErrAggregateRelease = errors.New("middleware: aggregate release failed")
)

// wireAggregand is the payload format the stage consumes.
type wireAggregand struct {
	Scheme string `json:"scheme"`
	C      []byte `json:"c"`
}

// Aggregate buffers per-channel Paillier ciphertexts, homomorphically
// adding each accepted submission into a running sum. A buffered
// submission is acknowledged immediately (its Handle returns nil); when
// the group reaches the configured size — or Flush is called — one
// synthetic request carrying the encrypted sum travels downstream under
// the AggregatePrincipal. Because any later stage would be skipped for
// aggregated requests, aggregate gives the held fact every stage refuses,
// so Config requires it to be the final stage and refuses it beside batch
// (both own the held-request release path).
type Aggregate struct {
	pk   *paillier.PublicKey
	size int

	mu      sync.Mutex
	pending map[string]*aggGroup
	next    Handler
}

// aggGroup is one channel's open aggregation window.
type aggGroup struct {
	sum   paillier.Ciphertext
	count int
	req   *Request // the filling request, mutated into the release vehicle
}

// NewAggregate creates the stage for the collector's public key and group
// size.
func NewAggregate(pk *paillier.PublicKey, size int) (*Aggregate, error) {
	if pk == nil {
		return nil, errors.New("middleware: aggregate needs the collector key (Env.Aggregator)")
	}
	if size < 1 {
		return nil, fmt.Errorf("middleware: aggregate needs size >= 1, got %d", size)
	}
	return &Aggregate{pk: pk, size: size, pending: make(map[string]*aggGroup)}, nil
}

// Name implements Stage.
func (a *Aggregate) Name() string { return StageAggregate }

// Pending reports the number of contributions buffered across all open
// groups.
func (a *Aggregate) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, g := range a.pending {
		n += g.count
	}
	return n
}

// Handle implements Stage.
func (a *Aggregate) Handle(ctx context.Context, req *Request, next Handler) error {
	ct, err := a.decodeAggregand(req.Payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadAggregand, err)
	}
	a.mu.Lock()
	a.next = next
	g := a.pending[req.Channel]
	if g == nil {
		g = &aggGroup{sum: ct}
		a.pending[req.Channel] = g
	} else {
		sum, aerr := a.pk.Add(g.sum, ct)
		if aerr != nil {
			a.mu.Unlock()
			return fmt.Errorf("%w: %v", ErrBadAggregand, aerr)
		}
		g.sum = sum
	}
	g.count++
	// The group keeps its latest request, the release vehicle, and lets go
	// of the one it replaces.
	req.hold()
	if g.req != nil {
		g.req.drop()
	}
	g.req = req
	if g.count < a.size {
		a.mu.Unlock()
		return nil // acknowledged: held for aggregation
	}
	delete(a.pending, req.Channel)
	a.mu.Unlock()
	return a.release(ctx, g, next)
}

// Flush releases every partially-filled aggregation group downstream. It
// is a no-op on an empty buffer and an error if the stage has never seen
// a request (the downstream continuation is learned from the first Handle
// call).
func (a *Aggregate) Flush(ctx context.Context) error {
	a.mu.Lock()
	groups := a.pending
	next := a.next
	a.pending = make(map[string]*aggGroup)
	a.mu.Unlock()
	if len(groups) == 0 {
		return nil
	}
	if next == nil {
		return errors.New("middleware: aggregate flush before any submission")
	}
	var errs []error
	for _, g := range groups {
		if err := a.release(ctx, g, next); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// release sends one group's encrypted sum downstream as a synthetic
// request derived from the filling submission. The flushing caller's
// cancellation is detached, mirroring batch: earlier contributors were
// acknowledged under their own, long-gone contexts.
func (a *Aggregate) release(ctx context.Context, g *aggGroup, next Handler) error {
	req := g.req
	defer req.drop()
	payload, err := json.Marshal(wireAggregand{Scheme: aggregandScheme, C: g.sum.C.Bytes()})
	if err != nil {
		return fmt.Errorf("%w: %v", ErrAggregateRelease, err)
	}
	req.Payload = payload
	req.Principal, req.digestSet = AggregatePrincipal, false
	// Fresh Meta: the filling contributor's annotations (a pseudonym, an
	// anoncred note) must not ride onto the anonymized aggregate.
	req.Meta = map[string]string{MetaAggregate: fmt.Sprintf("%s n=%d", aggregandScheme, g.count)}
	if err := next(context.WithoutCancel(ctx), req); err != nil {
		// %v, not %w, as in batch's release: a release error matches
		// ErrAggregateRelease and nothing under it.
		return fmt.Errorf("%w: %v", ErrAggregateRelease, err)
	}
	return nil
}

// decodeAggregand parses and validates one contribution against the
// collector's key, mirroring paillier's own ciphertext checks so a bad
// first contribution is rejected immediately instead of poisoning the
// group for the next submitter.
func (a *Aggregate) decodeAggregand(payload []byte) (paillier.Ciphertext, error) {
	var w wireAggregand
	if err := json.Unmarshal(payload, &w); err != nil {
		return paillier.Ciphertext{}, err
	}
	if w.Scheme != aggregandScheme {
		return paillier.Ciphertext{}, fmt.Errorf("scheme %q, want %q", w.Scheme, aggregandScheme)
	}
	if len(w.C) == 0 || len(w.C) > maxAggregandBytes {
		return paillier.Ciphertext{}, fmt.Errorf("ciphertext must be 1..%d bytes, got %d", maxAggregandBytes, len(w.C))
	}
	c := new(big.Int).SetBytes(w.C)
	if c.Sign() <= 0 || c.Cmp(a.pk.N2) >= 0 {
		return paillier.Ciphertext{}, errors.New("ciphertext outside the collector's group")
	}
	return paillier.Ciphertext{C: c}, nil
}

// EncodeAggregand is the client-side counterpart of the aggregate stage:
// it encrypts v under the collector's public key and returns the payload
// to submit.
func EncodeAggregand(pk *paillier.PublicKey, v *big.Int) ([]byte, error) {
	ct, err := pk.Encrypt(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireAggregand{Scheme: aggregandScheme, C: ct.C.Bytes()})
}

// DecryptAggregate opens a released aggregate payload with the
// collector's private key, returning the plaintext sum.
func DecryptAggregate(sk *paillier.PrivateKey, payload []byte) (*big.Int, error) {
	var w wireAggregand
	if err := json.Unmarshal(payload, &w); err != nil {
		return nil, err
	}
	if w.Scheme != aggregandScheme {
		return nil, fmt.Errorf("middleware: aggregate payload scheme %q, want %q", w.Scheme, aggregandScheme)
	}
	return sk.Decrypt(paillier.Ciphertext{C: new(big.Int).SetBytes(w.C)})
}

func init() {
	mustRegisterStage(stageDef{
		name: StageAggregate,
		desc: "terminal homomorphic aggregation: order only the Paillier sum per channel",
		params: []paramSpec{
			{"mode", `aggregation scheme, only "paillier"`},
			{"size", "contributions per released aggregate (default 8)"},
		},
		refuses: []factRule{
			{factSealed, "aggregation combines paillier ciphertexts, which envelope sealing would hide"},
			{factHeld, whyOneCollector},
		},
		gives: []factRule{{factHeld, "any later stage would be skipped for aggregated requests"}},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			if mode := p.str("mode", "paillier"); mode != "paillier" {
				return nil, fmt.Errorf("unknown aggregate mode %q (want paillier)", mode)
			}
			size := p.intVal("size", 8)
			if p.err != nil {
				return nil, p.err
			}
			return NewAggregate(env.Aggregator, size)
		},
	})
}
