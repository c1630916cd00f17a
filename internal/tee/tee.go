// Package tee simulates a trusted execution environment (§2.2, "Trusted
// execution environments"): an enclave with a manufacturer-embedded private
// key whose public half is certified by the manufacturer, remote attestation
// over the measurement (code hash) of the loaded program, sealed state, a
// rollback-detection counter (after Brandenburger et al., cited by the
// paper), and confidential execution in which neither the program text nor
// the data is visible to the hosting party.
//
// The simulation enforces the enclave boundary at the API level: hosts hold
// *Enclave values but can only call Execute/ExecuteConfidential, which
// return outputs and attestations — never the program or raw state. The
// leakage-accounting layer relies on this boundary when scoring TEE-based
// mechanisms.
package tee

import (
	"errors"
	"fmt"
	"sync"

	"dltprivacy/internal/dcrypto"
)

// Errors returned by enclave operations.
var (
	// ErrNoProgram is returned when Execute is called before Load.
	ErrNoProgram = errors.New("tee: no program loaded")
	// ErrBadAttestation is returned when an attestation fails to verify.
	ErrBadAttestation = errors.New("tee: attestation verification failed")
	// ErrWrongMeasurement is returned when an attestation is valid but
	// for a different program than expected.
	ErrWrongMeasurement = errors.New("tee: unexpected enclave measurement")
	// ErrRollback is returned when sealed state is older than the
	// enclave's monotonic counter — a rollback/forking attack indicator.
	ErrRollback = errors.New("tee: sealed state rollback detected")
	// ErrProgramFault wraps errors returned by the enclave program.
	ErrProgramFault = errors.New("tee: program fault")
)

// Program is confidential business logic executed inside an enclave. Run
// must be deterministic: (input, state) fully determine (output, newState).
type Program struct {
	Name    string
	Version string
	// Run executes the logic. state is the enclave's sealed state (nil on
	// first call); it returns the output and the new state.
	Run func(input, state []byte) (output, newState []byte, err error)
}

// Measurement returns the program's enclave measurement. A real TEE hashes
// the loaded code pages; the simulation hashes the program's identity, which
// is the property attestation consumers depend on.
func (p Program) Measurement() [32]byte {
	return dcrypto.HashConcat([]byte("tee/measurement"), []byte(p.Name), []byte(p.Version))
}

// Manufacturer models the chip vendor: it embeds a private key in each
// enclave at provisioning time and publishes the verification key.
type Manufacturer struct {
	key *dcrypto.PrivateKey
}

// NewManufacturer creates a manufacturer with a fresh root key.
func NewManufacturer() (*Manufacturer, error) {
	key, err := dcrypto.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("manufacturer key: %w", err)
	}
	return &Manufacturer{key: key}, nil
}

// PublicKey returns the manufacturer verification key that relying parties
// pin (the paper: "the corresponding public keys held by the manufacturer").
func (m *Manufacturer) PublicKey() dcrypto.PublicKey { return m.key.Public() }

// Provision fabricates an enclave with an embedded key endorsed by the
// manufacturer.
func (m *Manufacturer) Provision() (*Enclave, error) {
	key, err := dcrypto.GenerateKey()
	if err != nil {
		return nil, fmt.Errorf("enclave key: %w", err)
	}
	endorsement, err := m.key.Sign(key.Public().Bytes())
	if err != nil {
		return nil, fmt.Errorf("endorse enclave key: %w", err)
	}
	return &Enclave{
		key:         key,
		endorsement: endorsement,
	}, nil
}

// Enclave is a provisioned trusted execution environment.
type Enclave struct {
	key         *dcrypto.PrivateKey
	endorsement dcrypto.Signature

	mu      sync.Mutex
	program *Program
	state   []byte
	counter uint64
}

// Load installs a program into the enclave. The host that calls Load learns
// the measurement, not the logic (in this simulation the host may have
// constructed the Program, modelling the deploying party; a third-party host
// receives only the *Enclave and the measurement).
func (e *Enclave) Load(p Program) error {
	if p.Run == nil {
		return errors.New("tee: program has no entry point")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	prog := p
	e.program = &prog
	e.state = nil
	e.counter = 0
	return nil
}

// Attestation is a signed statement that a specific program (measurement)
// executed on specific input and produced specific output inside a genuine
// enclave at a given monotonic counter value. Nonce carries the verifier's
// freshness challenge when one was supplied.
type Attestation struct {
	Measurement [32]byte
	InputHash   [32]byte
	OutputHash  [32]byte
	Counter     uint64
	Nonce       []byte
	EnclaveKey  []byte
	Endorsement dcrypto.Signature
	Sig         dcrypto.Signature
}

func (a Attestation) payload() []byte {
	var buf []byte
	buf = append(buf, a.Measurement[:]...)
	buf = append(buf, a.InputHash[:]...)
	buf = append(buf, a.OutputHash[:]...)
	var ctr [8]byte
	for i := 0; i < 8; i++ {
		ctr[7-i] = byte(a.Counter >> (8 * i))
	}
	buf = append(buf, ctr[:]...)
	nonceHash := dcrypto.HashConcat([]byte("tee/nonce"), a.Nonce)
	buf = append(buf, nonceHash[:]...)
	buf = append(buf, a.EnclaveKey...)
	return buf
}

// Execute runs the loaded program on input, advancing the monotonic counter
// and returning the plaintext output with an attestation.
func (e *Enclave) Execute(input []byte) ([]byte, Attestation, error) {
	return e.ExecuteWithNonce(input, nil)
}

// ExecuteWithNonce is Execute with a verifier-chosen freshness challenge
// folded into the attestation, defeating quote replay.
func (e *Enclave) ExecuteWithNonce(input, nonce []byte) ([]byte, Attestation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.program == nil {
		return nil, Attestation{}, ErrNoProgram
	}
	output, newState, err := e.program.Run(input, e.state)
	if err != nil {
		return nil, Attestation{}, fmt.Errorf("%w: %v", ErrProgramFault, err)
	}
	e.state = newState
	e.counter++
	att := Attestation{
		Measurement: e.program.Measurement(),
		InputHash:   dcrypto.Hash(input),
		OutputHash:  dcrypto.Hash(output),
		Counter:     e.counter,
		Nonce:       append([]byte(nil), nonce...),
		EnclaveKey:  e.key.Public().Bytes(),
		Endorsement: e.endorsement,
	}
	sig, err := e.key.Sign(att.payload())
	if err != nil {
		return nil, Attestation{}, fmt.Errorf("sign attestation: %w", err)
	}
	att.Sig = sig
	return output, att, nil
}

// ExecuteConfidential runs the program on an encrypted input and returns the
// output encrypted to the authorized recipient, so the hosting party sees
// neither input nor output (§3.3: a node administrator that "should not have
// access to unencrypted data or business logic").
func (e *Enclave) ExecuteConfidential(input dcrypto.HybridCiphertext, recipient dcrypto.PublicKey) (dcrypto.HybridCiphertext, Attestation, error) {
	e.mu.Lock()
	key := e.key
	e.mu.Unlock()
	plain, err := dcrypto.DecryptHybrid(key, input, []byte("tee/input"))
	if err != nil {
		return dcrypto.HybridCiphertext{}, Attestation{}, fmt.Errorf("decrypt enclave input: %w", err)
	}
	output, att, err := e.Execute(plain)
	if err != nil {
		return dcrypto.HybridCiphertext{}, Attestation{}, err
	}
	ct, err := dcrypto.EncryptHybrid(recipient, output, []byte("tee/output"))
	if err != nil {
		return dcrypto.HybridCiphertext{}, Attestation{}, fmt.Errorf("encrypt enclave output: %w", err)
	}
	return ct, att, nil
}

// VerifyAttestation checks the full chain: the manufacturer endorsed the
// enclave key, the enclave signed the statement, and the measurement matches
// the program the verifier expects.
func VerifyAttestation(att Attestation, manufacturer dcrypto.PublicKey, expected [32]byte) error {
	enclaveKey, err := dcrypto.ParsePublicKey(att.EnclaveKey)
	if err != nil {
		return fmt.Errorf("%w: bad enclave key", ErrBadAttestation)
	}
	if err := manufacturer.Verify(att.EnclaveKey, att.Endorsement); err != nil {
		return fmt.Errorf("%w: endorsement", ErrBadAttestation)
	}
	if err := enclaveKey.Verify(att.payload(), att.Sig); err != nil {
		return fmt.Errorf("%w: quote signature", ErrBadAttestation)
	}
	if att.Measurement != expected {
		return ErrWrongMeasurement
	}
	return nil
}

// SealedState is enclave state encrypted for storage by the (untrusted)
// host, with the counter bound for rollback detection.
type SealedState struct {
	Counter    uint64
	Ciphertext []byte
}

// Seal exports the enclave's current state for host storage.
func (e *Enclave) Seal() (SealedState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sealKey := e.sealingKey()
	var ctr [8]byte
	for i := 0; i < 8; i++ {
		ctr[7-i] = byte(e.counter >> (8 * i))
	}
	ct, err := dcrypto.EncryptSymmetric(sealKey, e.state, ctr[:])
	if err != nil {
		return SealedState{}, fmt.Errorf("seal: %w", err)
	}
	return SealedState{Counter: e.counter, Ciphertext: ct}, nil
}

// Unseal restores state previously produced by Seal. Restoring state older
// than the enclave's counter fails with ErrRollback.
func (e *Enclave) Unseal(s SealedState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s.Counter < e.counter {
		return ErrRollback
	}
	var ctr [8]byte
	for i := 0; i < 8; i++ {
		ctr[7-i] = byte(s.Counter >> (8 * i))
	}
	state, err := dcrypto.DecryptSymmetric(e.sealingKey(), s.Ciphertext, ctr[:])
	if err != nil {
		return fmt.Errorf("unseal: %w", err)
	}
	e.state = state
	e.counter = s.Counter
	return nil
}

// sealingKey derives the enclave-local storage key from the embedded key.
func (e *Enclave) sealingKey() []byte {
	sum := dcrypto.HashConcat([]byte("tee/seal"), e.key.D().Bytes())
	return sum[:]
}
