package mpc

import "math/big"

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// FieldPrime returns (a copy of) the field modulus.
func FieldPrime() *big.Int { return new(big.Int).Set(fieldPrime) }
