package zkp

import (
	"errors"
	"fmt"
	"math/big"
)

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// Open verifies that the commitment opens to (v, r).
func (c Commitment) Open(v, r *big.Int) bool {
	return c.P.Equal(Commit(v, r).P)
}

// Sub returns the commitment to the difference.
func (c Commitment) Sub(other Commitment) Commitment {
	return Commitment{P: c.P.Sub(other.P)}
}

// ParsePoint decodes a 64-byte encoding produced by Bytes. The all-zero
// encoding decodes to the identity.
func ParsePoint(b []byte) (Point, error) {
	if len(b) != 64 {
		return Point{}, fmt.Errorf("zkp: point must be 64 bytes, got %d", len(b))
	}
	x := new(big.Int).SetBytes(b[:32])
	y := new(big.Int).SetBytes(b[32:])
	if x.Sign() == 0 && y.Sign() == 0 {
		return Point{X: x, Y: y}, nil
	}
	if !curve().IsOnCurve(x, y) {
		return Point{}, errors.New("zkp: point not on curve")
	}
	return Point{X: x, Y: y}, nil
}
