package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/zkp"
)

// StageZKProof is the range-proof verification stage: submissions must
// carry a Pedersen range (or sufficient-funds) claim, checked before the
// payload is sealed.
const StageZKProof = "zkproof"

// MetaZKProof is the request Meta key carrying a wire-encoded rangeClaim.
// The stage consumes the claim — the bulky proof never reaches the ledger —
// and replaces the value with a compact verification note that rides into
// the transaction metadata for auditors.
const MetaZKProof = "zkproof"

// maxProofWireBytes caps any single Meta-carried proof blob before JSON
// decoding: hostile frames must not buy unbounded allocation.
const maxProofWireBytes = 1 << 20

// Errors returned by the zkproof stage.
var (
	// ErrProofRequired is returned when a gated submission carries no
	// range claim.
	ErrProofRequired = errors.New("middleware: zkproof: submission carries no range claim")
	// ErrProofInvalid is returned when a carried claim fails to decode or
	// verify.
	ErrProofInvalid = errors.New("middleware: zkproof: range claim rejected")
)

// rangeClaim is the wire form of the zkproof stage's evidence: a Pedersen
// commitment and a zero-knowledge proof that the committed value lies in
// [0, 2^bits). With Threshold set, the claim is a sufficient-funds
// statement instead: committed value ≥ Threshold (the range proof then
// covers the shifted commitment at the default width). The proof
// transcript is bound to the submitting channel and principal, so claims
// cannot be replayed across channels or submitters.
type rangeClaim struct {
	Comm      zkp.Commitment
	Threshold *big.Int `json:",omitempty"`
	Proof     zkp.RangeProof
}

// zkProofStage verifies range claims carried in request metadata. Construction
// is the only configuration point; Handle allocates nothing on requests
// for other channels.
type zkProofStage struct {
	bits    int
	channel string
}

// newZKProofRange creates the stage. bits is the required proof width;
// channel, when non-empty, gates only that channel and passes every other
// request through untouched.
func newZKProofRange(bits int, channel string) (*zkProofStage, error) {
	if bits < 1 || bits > 64 {
		return nil, fmt.Errorf("middleware: zkproof bits must be in [1, 64], got %d", bits)
	}
	return &zkProofStage{bits: bits, channel: channel}, nil
}

// Name implements Stage.
func (z *zkProofStage) Name() string { return StageZKProof }

// Handle implements Stage: decode, sanitize, and verify the claim, then
// strip the proof from the request and pass it on.
func (z *zkProofStage) Handle(ctx context.Context, req *Request, next Handler) error {
	if z.channel != "" && req.Channel != z.channel {
		return next(ctx, req)
	}
	blob, ok := req.Meta[MetaZKProof]
	if !ok || blob == "" {
		return fmt.Errorf("%w (channel %s)", ErrProofRequired, req.Channel)
	}
	if len(blob) > maxProofWireBytes {
		return fmt.Errorf("%w: claim exceeds %d bytes", ErrProofInvalid, maxProofWireBytes)
	}
	var claim rangeClaim
	if err := json.Unmarshal([]byte(blob), &claim); err != nil {
		return fmt.Errorf("%w: %v", ErrProofInvalid, err)
	}
	if err := checkRangeClaim(&claim, z.bits); err != nil {
		return fmt.Errorf("%w: %v", ErrProofInvalid, err)
	}
	cctx := zkproofContext(req.Channel, req.Principal)
	var err error
	if claim.Threshold != nil {
		err = zkp.VerifySufficientFunds(
			zkp.SufficientFundsProof{Threshold: claim.Threshold, Range: claim.Proof},
			claim.Comm, cctx)
	} else {
		err = zkp.VerifyRange(claim.Proof, claim.Comm, cctx)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrProofInvalid, err)
	}
	sum := dcrypto.Hash(claim.Comm.Bytes())
	req.Meta[MetaZKProof] = fmt.Sprintf("range/%d verified comm=%x", claim.Proof.Bits, sum[:8])
	return next(ctx, req)
}

// checkRangeClaim sanitizes a decoded claim before any group arithmetic:
// every point must be a valid group element (hostile off-curve or
// oversized coordinates would panic inside crypto/elliptic) and the proof
// shape must match the configured width, bounding verification work.
func checkRangeClaim(claim *rangeClaim, bits int) error {
	if claim.Proof.Bits != bits {
		return fmt.Errorf("proof width %d, stage requires %d", claim.Proof.Bits, bits)
	}
	if len(claim.Proof.BitComms) != bits || len(claim.Proof.BitProofs) != bits {
		return errors.New("malformed proof: bit count mismatch")
	}
	if !claim.Comm.P.Valid() {
		return errors.New("commitment is not a group element")
	}
	for i := range claim.Proof.BitComms {
		if !claim.Proof.BitComms[i].P.Valid() {
			return fmt.Errorf("bit commitment %d is not a group element", i)
		}
		bp := &claim.Proof.BitProofs[i]
		if !bp.A0.Valid() || !bp.A1.Valid() {
			return fmt.Errorf("bit proof %d is not a group element", i)
		}
	}
	return nil
}

// zkproofContext binds proof transcripts to the submission: a claim proved
// for one (channel, principal) pair verifies for no other.
func zkproofContext(channel, principal string) []byte {
	sum := dcrypto.HashConcat([]byte("middleware/zkproof/v1"), []byte(channel), []byte(principal))
	return sum[:]
}

// AttachRangeProof is the client-side counterpart of the zkproof stage: it
// commits to v, proves v ∈ [0, 2^bits), and attaches the claim to the
// request. Set the request's Channel and Principal first — the proof
// transcript is bound to both. The commitment is returned so the caller
// can reference it in the payload.
func AttachRangeProof(req *Request, v *big.Int, bits int) (zkp.Commitment, error) {
	comm, r, err := zkp.CommitValue(v)
	if err != nil {
		return zkp.Commitment{}, err
	}
	proof, err := zkp.ProveRange(v, r, comm, bits, zkproofContext(req.Channel, req.Principal))
	if err != nil {
		return zkp.Commitment{}, err
	}
	return comm, attachRangeClaim(req, rangeClaim{Comm: comm, Proof: proof})
}

// AttachSufficientFundsProof commits to balance and proves
// balance ≥ threshold without revealing the balance, attaching the claim
// to the request. The proof uses the default range width
// (zkp.DefaultRangeBits), which is also the stage's default bits setting.
func AttachSufficientFundsProof(req *Request, balance, threshold *big.Int) (zkp.Commitment, error) {
	comm, r, err := zkp.CommitValue(balance)
	if err != nil {
		return zkp.Commitment{}, err
	}
	proof, err := zkp.ProveSufficientFunds(balance, r, threshold, comm, zkproofContext(req.Channel, req.Principal))
	if err != nil {
		return zkp.Commitment{}, err
	}
	return comm, attachRangeClaim(req, rangeClaim{Comm: comm, Threshold: proof.Threshold, Proof: proof.Range})
}

func attachRangeClaim(req *Request, claim rangeClaim) error {
	blob, err := json.Marshal(claim)
	if err != nil {
		return err
	}
	if req.Meta == nil {
		req.Meta = make(map[string]string, 1)
	}
	req.Meta[MetaZKProof] = string(blob)
	return nil
}

func init() {
	mustRegisterStage(stageDef{
		name: StageZKProof,
		desc: "verify a Pedersen range / sufficient-funds claim before sealing",
		params: []paramSpec{
			{"mode", `proof system, only "range"`},
			{"bits", "required proof width in [1, 64] (default 32)"},
			{"channel", "gate only this channel (default: all channels)"},
		},
		needs:   []factRule{{factPrincipal, "proof contexts are bound to the verified principal"}},
		refuses: []factRule{{factSealed, "claims are checked against the plaintext submission before it is sealed"}},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			if mode := p.str("mode", "range"); mode != "range" {
				return nil, fmt.Errorf("unknown zkproof mode %q (want range)", mode)
			}
			bits := p.intVal("bits", zkp.DefaultRangeBits)
			channel := p.str("channel", "")
			if p.err != nil {
				return nil, p.err
			}
			return newZKProofRange(bits, channel)
		},
	})
}
