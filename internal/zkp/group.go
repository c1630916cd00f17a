// Package zkp implements the zero-knowledge building blocks the paper's
// mechanisms rely on (§2.1 "Zero-knowledge proof of identity", §2.2
// "Zero-knowledge proofs"): Pedersen commitments, Schnorr proofs of
// knowledge, equality-of-discrete-log proofs, OR-composed bit proofs, and
// bit-decomposition range proofs providing the "boolean affirmation" the
// paper motivates with "the party has the appropriate funds".
//
// All protocols are sigma protocols made non-interactive with the
// Fiat–Shamir transform over SHA-256, on the NIST P-256 group.
package zkp

import (
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"dltprivacy/internal/dcrypto"
)

// Errors returned by proof verification.
var (
	// ErrBadProof is returned when any proof fails verification.
	ErrBadProof = errors.New("zkp: proof verification failed")
	// ErrOutOfRange is returned when a prover is asked to prove a
	// statement that is false (for example a negative balance); provers
	// refuse rather than emit an unsound proof.
	ErrOutOfRange = errors.New("zkp: witness does not satisfy the statement")
)

// Point is an element of the P-256 group. The identity is (0, 0), matching
// crypto/elliptic's affine convention.
type Point struct {
	X, Y *big.Int
}

func curve() elliptic.Curve { return elliptic.P256() }

// Order returns the group order N.
func Order() *big.Int { return new(big.Int).Set(curve().Params().N) }

// Generator returns the standard base point G.
func Generator() Point {
	p := curve().Params()
	return Point{X: new(big.Int).Set(p.Gx), Y: new(big.Int).Set(p.Gy)}
}

// generatorH is the second Pedersen generator, derived by try-and-increment
// hashing so that nobody knows its discrete log with respect to G.
var generatorH = deriveH()

// GeneratorH returns the second Pedersen generator H.
func GeneratorH() Point { return generatorH }

func deriveH() Point {
	c := curve()
	p := c.Params().P
	for ctr := 0; ctr < 1024; ctr++ {
		seed := dcrypto.HashConcat([]byte("dltprivacy/pedersen/H"), []byte{byte(ctr)})
		x := new(big.Int).SetBytes(seed[:])
		x.Mod(x, p)
		// y^2 = x^3 - 3x + b
		y2 := new(big.Int).Mul(x, x)
		y2.Mul(y2, x)
		threeX := new(big.Int).Lsh(x, 1)
		threeX.Add(threeX, x)
		y2.Sub(y2, threeX)
		y2.Add(y2, c.Params().B)
		y2.Mod(y2, p)
		y := new(big.Int).ModSqrt(y2, p)
		if y == nil {
			continue
		}
		if c.IsOnCurve(x, y) {
			return Point{X: x, Y: y}
		}
	}
	// Unreachable in practice: roughly half of all x coordinates are on
	// the curve.
	panic("zkp: could not derive generator H")
}

// IsIdentity reports whether the point is the group identity.
func (p Point) IsIdentity() bool {
	return p.X == nil || (p.X.Sign() == 0 && p.Y.Sign() == 0)
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	if p.IsIdentity() {
		return q.clone()
	}
	if q.IsIdentity() {
		return p.clone()
	}
	x, y := curve().Add(p.X, p.Y, q.X, q.Y)
	return Point{X: x, Y: y}
}

// Neg returns -p.
func (p Point) Neg() Point {
	if p.IsIdentity() {
		return Point{X: new(big.Int), Y: new(big.Int)}
	}
	return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Sub(curve().Params().P, p.Y)}
}

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return p.Add(q.Neg()) }

// Mul returns k*p for a scalar k (reduced mod N).
func (p Point) Mul(k *big.Int) Point {
	if p.IsIdentity() {
		return Point{X: new(big.Int), Y: new(big.Int)}
	}
	kk := new(big.Int).Mod(k, Order())
	if kk.Sign() == 0 {
		return Point{X: new(big.Int), Y: new(big.Int)}
	}
	x, y := curve().ScalarMult(p.X, p.Y, kk.Bytes())
	return Point{X: x, Y: y}
}

// MulBase returns k*G.
func MulBase(k *big.Int) Point {
	kk := new(big.Int).Mod(k, Order())
	if kk.Sign() == 0 {
		return Point{X: new(big.Int), Y: new(big.Int)}
	}
	x, y := curve().ScalarBaseMult(kk.Bytes())
	return Point{X: x, Y: y}
}

// Equal reports whether two points are the same element.
func (p Point) Equal(q Point) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Valid reports whether the point is a well-formed group element: the
// identity, or an on-curve point with both coordinates in [0, P). Points
// decoded from untrusted input (JSON, wire frames) MUST be checked with
// Valid before any group operation — crypto/elliptic panics on arithmetic
// over off-curve points, and Bytes panics on coordinates wider than 256
// bits, so an unchecked hostile point is a remote crash, not a failed
// verification.
func (p Point) Valid() bool {
	if p.X == nil && p.Y == nil {
		return true // canonical identity
	}
	if p.X == nil || p.Y == nil {
		return false // half-decoded: IsIdentity would dereference nil
	}
	if p.X.Sign() == 0 && p.Y.Sign() == 0 {
		return true // all-zero identity encoding
	}
	fieldP := curve().Params().P
	if p.X.Sign() < 0 || p.Y.Sign() < 0 || p.X.Cmp(fieldP) >= 0 || p.Y.Cmp(fieldP) >= 0 {
		return false
	}
	return curve().IsOnCurve(p.X, p.Y)
}

func (p Point) clone() Point {
	if p.X == nil {
		return Point{X: new(big.Int), Y: new(big.Int)}
	}
	return Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Set(p.Y)}
}

// Bytes returns a canonical encoding of the point for transcripts.
func (p Point) Bytes() []byte {
	out := make([]byte, 64)
	if p.IsIdentity() {
		return out
	}
	p.X.FillBytes(out[:32])
	p.Y.FillBytes(out[32:])
	return out
}

// RandScalar samples a uniform scalar in [1, N-1].
func RandScalar() (*big.Int, error) {
	for {
		k, err := rand.Int(rand.Reader, Order())
		if err != nil {
			return nil, fmt.Errorf("sample scalar: %w", err)
		}
		if k.Sign() > 0 {
			return k, nil
		}
	}
}

// Challenge derives a Fiat–Shamir challenge scalar from transcript parts.
// The small modular bias of reducing a 256-bit hash mod N is acceptable for
// this reproduction (N is within 2^-32 of 2^256).
func Challenge(parts ...[]byte) *big.Int {
	sum := dcrypto.HashConcat(parts...)
	c := new(big.Int).SetBytes(sum[:])
	return c.Mod(c, Order())
}
