// Package mpc implements multiparty computation by additive secret sharing
// (§2.2, "Multiparty computation", citing Chaum–Crépeau–Damgård): a group of
// parties computes a shared function on private inputs; each party only ever
// sees uniformly random shares and aggregated partial sums, never another
// party's raw value. All parties obtain the same output, which can then be
// committed to a ledger.
//
// The package implements the honest-but-curious model the paper's mechanism
// assumes ("all functions and algorithms performed on the data are known to
// all involved parties"). The protocol transcript is exposed so that tests
// and the leakage-accounting layer can verify what each party observed.
package mpc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

// Errors returned by protocol operations.
var (
	// ErrTooFewParties is returned for protocols with fewer than two
	// parties, where "multiparty" privacy is vacuous.
	ErrTooFewParties = errors.New("mpc: need at least two parties")
	// ErrMissingInput is returned when a party has not provided an input.
	ErrMissingInput = errors.New("mpc: party input not set")
	// ErrInputRange is returned when an input is outside [0, FieldPrime).
	ErrInputRange = errors.New("mpc: input out of field range")
	// ErrShareCount is returned by Reconstruct when shares are missing.
	ErrShareCount = errors.New("mpc: wrong number of shares")
	// ErrBadVote is returned when a ballot input is not 0 or 1.
	ErrBadVote = errors.New("mpc: ballot votes must be 0 or 1")
)

// fieldPrime is the prime modulus of the sharing field: 2^255 - 19.
var fieldPrime = func() *big.Int {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	return p.Sub(p, big.NewInt(19))
}()

// Share splits secret into n additive shares: uniformly random values whose
// sum is the secret mod p. Any strict subset of shares is uniformly
// distributed and reveals nothing.
func Share(secret *big.Int, n int) ([]*big.Int, error) {
	if n < 2 {
		return nil, ErrTooFewParties
	}
	if secret.Sign() < 0 || secret.Cmp(fieldPrime) >= 0 {
		return nil, ErrInputRange
	}
	shares := make([]*big.Int, n)
	acc := new(big.Int)
	for i := 0; i < n-1; i++ {
		r, err := rand.Int(rand.Reader, fieldPrime)
		if err != nil {
			return nil, fmt.Errorf("sample share: %w", err)
		}
		shares[i] = r
		acc.Add(acc, r)
	}
	last := new(big.Int).Sub(secret, acc)
	last.Mod(last, fieldPrime)
	shares[n-1] = last
	return shares, nil
}

// Reconstruct sums all shares mod p.
func Reconstruct(shares []*big.Int) (*big.Int, error) {
	if len(shares) < 2 {
		return nil, ErrShareCount
	}
	sum := new(big.Int)
	for _, s := range shares {
		if s == nil {
			return nil, ErrShareCount
		}
		sum.Add(sum, s)
	}
	return sum.Mod(sum, fieldPrime), nil
}

// Message is one point-to-point transfer inside a protocol run, recorded in
// the transcript. Kind distinguishes a random share from an aggregated
// partial sum; only those two kinds of value ever travel.
type Message struct {
	From, To string
	Kind     MessageKind
	Value    *big.Int
}

// MessageKind labels protocol messages.
type MessageKind int

// Message kinds.
const (
	// KindShare is a uniformly random additive share of a private input.
	KindShare MessageKind = iota + 1
	// KindPartialSum is the sum of all shares a party received.
	KindPartialSum
)

// Result is the outcome of a protocol run.
type Result struct {
	// Value is the jointly computed output, identical for all parties.
	Value *big.Int
	// PerParty is the output each party computed locally; the protocol
	// guarantees they coincide, and tests assert it.
	PerParty map[string]*big.Int
	// Transcript is every message exchanged during the run.
	Transcript []Message
}

// SecureSum computes the sum of the private inputs without any party
// revealing its raw value. inputs maps party name to private input.
func SecureSum(inputs map[string]*big.Int) (*Result, error) {
	names := sortedNames(inputs)
	n := len(names)
	if n < 2 {
		return nil, ErrTooFewParties
	}
	for _, name := range names {
		v := inputs[name]
		if v == nil {
			return nil, fmt.Errorf("party %q: %w", name, ErrMissingInput)
		}
		if v.Sign() < 0 || v.Cmp(fieldPrime) >= 0 {
			return nil, fmt.Errorf("party %q: %w", name, ErrInputRange)
		}
	}

	var transcript []Message
	// Round 1: every party splits its input and sends share j to party j.
	received := make(map[string][]*big.Int, n) // recipient -> shares
	for _, from := range names {
		shares, err := Share(inputs[from], n)
		if err != nil {
			return nil, fmt.Errorf("share input of %q: %w", from, err)
		}
		for j, to := range names {
			received[to] = append(received[to], shares[j])
			if from != to {
				transcript = append(transcript, Message{
					From: from, To: to, Kind: KindShare, Value: new(big.Int).Set(shares[j]),
				})
			}
		}
	}

	// Round 2: every party sums its received shares and broadcasts the
	// partial sum.
	partials := make(map[string]*big.Int, n)
	for _, name := range names {
		sum := new(big.Int)
		for _, s := range received[name] {
			sum.Add(sum, s)
		}
		sum.Mod(sum, fieldPrime)
		partials[name] = sum
		for _, to := range names {
			if to != name {
				transcript = append(transcript, Message{
					From: name, To: to, Kind: KindPartialSum, Value: new(big.Int).Set(sum),
				})
			}
		}
	}

	// Round 3: everyone sums the partials locally.
	perParty := make(map[string]*big.Int, n)
	for _, name := range names {
		total := new(big.Int)
		for _, p := range partials {
			total.Add(total, p)
		}
		perParty[name] = total.Mod(total, fieldPrime)
	}
	return &Result{
		Value:      new(big.Int).Set(perParty[names[0]]),
		PerParty:   perParty,
		Transcript: transcript,
	}, nil
}

// SecureMean computes the arithmetic mean (integer-divided) of private
// inputs, returning (sum/n, remainder as sum mod n is discarded — the mean
// is floor(sum/n)).
func SecureMean(inputs map[string]*big.Int) (*Result, error) {
	res, err := SecureSum(inputs)
	if err != nil {
		return nil, err
	}
	n := big.NewInt(int64(len(inputs)))
	mean := new(big.Int).Div(res.Value, n)
	for name := range res.PerParty {
		res.PerParty[name] = new(big.Int).Div(res.PerParty[name], n)
	}
	res.Value = mean
	return res, nil
}

// SecretBallot runs the paper's motivating MPC example: a yes/no vote in
// which no party learns how any other party voted, only the tally. Votes
// must be 0 (no) or 1 (yes). It returns yes-count and the full result.
func SecretBallot(votes map[string]bool) (yes int, res *Result, err error) {
	inputs := make(map[string]*big.Int, len(votes))
	for name, v := range votes {
		if v {
			inputs[name] = big.NewInt(1)
		} else {
			inputs[name] = big.NewInt(0)
		}
	}
	res, err = SecureSum(inputs)
	if err != nil {
		return 0, nil, err
	}
	if !res.Value.IsInt64() || res.Value.Int64() > int64(len(votes)) {
		return 0, nil, fmt.Errorf("mpc: tally out of range: %v", res.Value)
	}
	return int(res.Value.Int64()), res, nil
}

// ObservedRawInput reports whether any message in the transcript carried a
// party's raw input to another party — the property MPC must prevent. Tests
// and the leakage layer use it as an executable privacy assertion. A share
// equal to the input can occur with negligible probability 1/p; partial
// sums equal to an input likewise.
func ObservedRawInput(res *Result, inputs map[string]*big.Int) bool {
	for _, m := range res.Transcript {
		in, ok := inputs[m.From]
		if !ok || in == nil {
			continue
		}
		if m.Kind == KindShare && m.Value.Cmp(in) == 0 && in.Sign() != 0 {
			return true
		}
	}
	return false
}

func sortedNames(inputs map[string]*big.Int) []string {
	names := make([]string, 0, len(inputs))
	for name := range inputs {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}
