package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/tee"
)

// StageAttest requires a TEE attestation on every submission: a signed
// statement that the expected enclave program processed the payload,
// verified against the manufacturer key and pinned measurement before the
// payload is sealed.
const StageAttest = "attest"

// MetaAttest is the request Meta key carrying the wire-encoded
// tee.Attestation; the stage consumes it and leaves a compact note naming
// the verified measurement.
const MetaAttest = "attestation"

// Attestation payload-binding modes: which side of the enclave execution
// the submitted payload must hash to.
const (
	bindInput  = "input"
	bindOutput = "output"
	bindOff    = "off"
)

// Errors returned by the attest stage.
var (
	// ErrAttestationRequired is returned when a submission carries no
	// attestation.
	ErrAttestationRequired = errors.New("middleware: attest: submission carries no attestation")
	// ErrAttestationRejected is returned when a carried attestation fails
	// to verify or does not cover the submitted payload.
	ErrAttestationRejected = errors.New("middleware: attest: attestation rejected")
)

// AttestationPolicy pins what the attest stage trusts: the TEE
// manufacturer's verification key (the root of the endorsement chain) and
// the measurement of the one program whose attestations are acceptable.
type AttestationPolicy struct {
	Manufacturer dcrypto.PublicKey
	Measurement  [32]byte
}

// attestStage verifies TEE attestations on submissions (Env.Attestation is the
// trust policy). With input (default) or output binding, the attestation
// must additionally cover the submitted payload — a valid quote for some
// other data is rejected, so payloads cannot be swapped after enclave
// processing.
type attestStage struct {
	policy AttestationPolicy
	bind   string
}

// newAttestTEE creates the stage from a trust policy and binding mode.
func newAttestTEE(policy AttestationPolicy, bind string) (*attestStage, error) {
	if policy.Manufacturer.IsZero() {
		return nil, errors.New("middleware: attest needs the manufacturer key (Env.Attestation)")
	}
	switch bind {
	case bindInput, bindOutput, bindOff:
	default:
		return nil, fmt.Errorf("middleware: attest bind must be %s, %s, or %s, got %q", bindInput, bindOutput, bindOff, bind)
	}
	return &attestStage{policy: policy, bind: bind}, nil
}

// Name implements Stage.
func (a *attestStage) Name() string { return StageAttest }

// Handle implements Stage.
func (a *attestStage) Handle(ctx context.Context, req *Request, next Handler) error {
	blob, ok := req.Meta[MetaAttest]
	if !ok || blob == "" {
		return fmt.Errorf("%w (channel %s)", ErrAttestationRequired, req.Channel)
	}
	if len(blob) > maxProofWireBytes {
		return fmt.Errorf("%w: attestation exceeds %d bytes", ErrAttestationRejected, maxProofWireBytes)
	}
	var att tee.Attestation
	if err := json.Unmarshal([]byte(blob), &att); err != nil {
		return fmt.Errorf("%w: %v", ErrAttestationRejected, err)
	}
	if err := tee.VerifyAttestation(att, a.policy.Manufacturer, a.policy.Measurement); err != nil {
		return fmt.Errorf("%w: %v", ErrAttestationRejected, err)
	}
	switch a.bind {
	case bindInput:
		if att.InputHash != dcrypto.Hash(req.Payload) {
			return fmt.Errorf("%w: attestation does not cover this payload (input binding)", ErrAttestationRejected)
		}
	case bindOutput:
		if att.OutputHash != dcrypto.Hash(req.Payload) {
			return fmt.Errorf("%w: attestation does not cover this payload (output binding)", ErrAttestationRejected)
		}
	}
	req.Meta[MetaAttest] = fmt.Sprintf("tee/%x", att.Measurement[:8])
	return next(ctx, req)
}

// AttachAttestation is the client-side counterpart of the attest stage: it
// attaches a wire-encoded attestation (obtained from an enclave Execute
// call) to the request.
func AttachAttestation(req *Request, att tee.Attestation) error {
	blob, err := json.Marshal(att)
	if err != nil {
		return err
	}
	if req.Meta == nil {
		req.Meta = make(map[string]string, 1)
	}
	req.Meta[MetaAttest] = string(blob)
	return nil
}

func init() {
	mustRegisterStage(stageDef{
		name: StageAttest,
		desc: "require a TEE attestation covering the submission (manufacturer + measurement pinned)",
		params: []paramSpec{
			{"mode", `attestation scheme, only "tee"`},
			{"bind", "payload binding: input|output|off (default input)"},
		},
		refuses: []factRule{{factSealed, "attestations bind to the plaintext payload, which sealing hides"}},
		build: func(p *params, sc StageConfig, env Env) (Stage, error) {
			if mode := p.str("mode", "tee"); mode != "tee" {
				return nil, fmt.Errorf("unknown attest mode %q (want tee)", mode)
			}
			bind := p.enum("bind", bindInput, bindInput, bindOutput, bindOff)
			if p.err != nil {
				return nil, p.err
			}
			if env.Attestation == nil {
				return nil, errors.New("attest needs Env.Attestation (manufacturer key + expected measurement)")
			}
			return newAttestTEE(*env.Attestation, bind)
		},
	})
}
