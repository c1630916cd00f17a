// Package anoncred implements an Idemix-style anonymous credential system
// (the paper's "Zero-knowledge proof of identity", §2.1 and §5 "Fabric …
// Idemix"): an issuer certifies attributes for a party; the party can later
// prove possession of the credential with presentations that are unlinkable
// to its identity, unlinkable to each other across contexts, and — because
// issuance is blind — unlinkable even by the issuer.
//
// The construction substitutes stdlib-friendly primitives for Idemix's
// pairing-based CL signatures:
//
//   - blind Schnorr signatures over P-256 for one-show credential tokens,
//   - Pedersen commitments to a master secret embedded in each token,
//   - per-context pseudonyms Nym = s·H(ctx) with an equality-of-discrete-log
//     proof tying the pseudonym to the committed master secret, giving
//     Idemix's scope-exclusive pseudonym semantics.
package anoncred

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/zkp"
)

// Errors returned by the credential system.
var (
	// ErrBadCredential is returned when a presentation fails verification.
	ErrBadCredential = errors.New("anoncred: credential verification failed")
	// ErrUnknownSession is returned when a signing session id is unknown
	// or already used.
	ErrUnknownSession = errors.New("anoncred: unknown signing session")
	// ErrNoTokens is returned when a wallet has run out of one-show
	// tokens for the requested attribute set.
	ErrNoTokens = errors.New("anoncred: no unused credential tokens")
	// ErrUnknownAttributeSet is returned when the issuer has no key for
	// the requested attribute set.
	ErrUnknownAttributeSet = errors.New("anoncred: unknown attribute set")
)

// blindSignature is a Schnorr signature (R, S) on a message, produced through
// the blind issuance protocol so the signer never sees message or signature.
type blindSignature struct {
	R zkp.Point
	S *big.Int
}

// verifySchnorrSig checks the ordinary Schnorr verification equation
// s*G == R + c*P with c = H(P, R, m).
func verifySchnorrSig(pub zkp.Point, msg []byte, sig blindSignature) error {
	if sig.S == nil {
		return ErrBadCredential
	}
	c := zkp.Challenge([]byte("anoncred/sig"), pub.Bytes(), sig.R.Bytes(), msg)
	lhs := zkp.MulBase(sig.S)
	rhs := sig.R.Add(pub.Mul(c))
	if !lhs.Equal(rhs) {
		return ErrBadCredential
	}
	return nil
}

// signerSession holds the issuer-side nonce of one blind-signing run.
type signerSession struct {
	k *big.Int
}

// blindSigner is the issuer-side state machine of the blind Schnorr
// protocol.
type blindSigner struct {
	x   *big.Int
	pub zkp.Point

	mu       sync.Mutex
	sessions map[uint64]signerSession
	nextID   uint64
}

func newBlindSigner() (*blindSigner, error) {
	x, err := zkp.RandScalar()
	if err != nil {
		return nil, fmt.Errorf("signer key: %w", err)
	}
	return &blindSigner{x: x, pub: zkp.MulBase(x), sessions: make(map[uint64]signerSession)}, nil
}

// begin opens a signing session and returns (sessionID, R = k*G).
func (b *blindSigner) begin() (uint64, zkp.Point, error) {
	k, err := zkp.RandScalar()
	if err != nil {
		return 0, zkp.Point{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	b.sessions[id] = signerSession{k: k}
	return id, zkp.MulBase(k), nil
}

// finish consumes the session and returns s = k + c*x. Single use: replays
// are rejected, which prevents nonce reuse.
func (b *blindSigner) finish(id uint64, c *big.Int) (*big.Int, error) {
	b.mu.Lock()
	sess, ok := b.sessions[id]
	delete(b.sessions, id)
	b.mu.Unlock()
	if !ok {
		return nil, ErrUnknownSession
	}
	s := new(big.Int).Mul(c, b.x)
	s.Add(s, sess.k)
	s.Mod(s, zkp.Order())
	return s, nil
}

// blindRequest carries the user-side blinding state between the two rounds.
type blindRequest struct {
	alpha, beta *big.Int
	rPrime      zkp.Point
	msg         []byte
}

// blind computes the blinded challenge for message msg given the issuer's
// commitment R.
func blind(pub, r zkp.Point, msg []byte) (blindRequest, *big.Int, error) {
	alpha, err := zkp.RandScalar()
	if err != nil {
		return blindRequest{}, nil, err
	}
	beta, err := zkp.RandScalar()
	if err != nil {
		return blindRequest{}, nil, err
	}
	rPrime := r.Add(zkp.MulBase(alpha)).Add(pub.Mul(beta))
	cPrime := zkp.Challenge([]byte("anoncred/sig"), pub.Bytes(), rPrime.Bytes(), msg)
	c := new(big.Int).Add(cPrime, beta)
	c.Mod(c, zkp.Order())
	return blindRequest{alpha: alpha, beta: beta, rPrime: rPrime, msg: msg}, c, nil
}

// unblind turns the issuer's response into the final signature.
func unblind(req blindRequest, s *big.Int) blindSignature {
	sPrime := new(big.Int).Add(s, req.alpha)
	sPrime.Mod(sPrime, zkp.Order())
	return blindSignature{R: req.rPrime, S: sPrime}
}

// hashToPoint derives a context-specific base point for pseudonyms. Using
// H(ctx)*H keeps the discrete log relative to G unknown.
func hashToPoint(context string) zkp.Point {
	scalar := zkp.Challenge([]byte("anoncred/ctx"), []byte(context))
	return zkp.GeneratorH().Mul(scalar)
}

// canonicalAttrs produces a deterministic encoding of an attribute set.
func canonicalAttrs(attrs []string) []byte {
	parts := make([][]byte, 0, len(attrs)+1)
	parts = append(parts, []byte("anoncred/attrs"))
	for _, a := range sortedCopy(attrs) {
		parts = append(parts, []byte(a))
	}
	sum := dcrypto.HashConcat(parts...)
	return sum[:]
}

func sortedCopy(in []string) []string {
	out := make([]string, len(in))
	copy(out, in)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
