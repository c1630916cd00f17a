package zkp

import (
	"fmt"
	"math/big"
)

// Commitment is a Pedersen commitment C = v*G + r*H. It is perfectly hiding
// and computationally binding; commitments are additively homomorphic, which
// the range proofs exploit.
type Commitment struct {
	P Point
}

// Commit commits to value v with blinding r.
func Commit(v, r *big.Int) Commitment {
	return Commitment{P: MulBase(v).Add(generatorH.Mul(r))}
}

// CommitValue commits to v with fresh randomness, returning the commitment
// and the blinding factor.
func CommitValue(v *big.Int) (Commitment, *big.Int, error) {
	r, err := RandScalar()
	if err != nil {
		return Commitment{}, nil, fmt.Errorf("commit: %w", err)
	}
	return Commit(v, r), r, nil
}

// Add returns the commitment to the sum of the committed values (blindings
// add correspondingly).
func (c Commitment) Add(other Commitment) Commitment {
	return Commitment{P: c.P.Add(other.P)}
}

// MulScalar returns the commitment to k times the committed value.
func (c Commitment) MulScalar(k *big.Int) Commitment {
	return Commitment{P: c.P.Mul(k)}
}

// SubValue returns the commitment to (v - t) given the commitment to v; the
// blinding factor is unchanged. This is the operation that turns a balance
// commitment into a "balance minus threshold" commitment for sufficient-funds
// proofs.
func (c Commitment) SubValue(t *big.Int) Commitment {
	return Commitment{P: c.P.Sub(MulBase(t))}
}

// Equal reports whether two commitments are the same group element.
func (c Commitment) Equal(other Commitment) bool { return c.P.Equal(other.P) }

// Bytes returns the canonical encoding for transcripts.
func (c Commitment) Bytes() []byte { return c.P.Bytes() }
