package tee

import (
	"dltprivacy/internal/dcrypto"
)

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// PublicKey returns the enclave's attestation key.
func (e *Enclave) PublicKey() dcrypto.PublicKey { return e.key.Public() }

// Measurement returns the measurement of the loaded program.
func (e *Enclave) Measurement() ([32]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.program == nil {
		return [32]byte{}, ErrNoProgram
	}
	return e.program.Measurement(), nil
}
