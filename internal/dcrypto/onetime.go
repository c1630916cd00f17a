package dcrypto

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
)

// OneTimeKeyChain manages one-time public keys for a party (§2.1, "One-time
// public keys"): fresh keys are derived per transaction from a secret seed so
// that asset ownership recorded against them cannot be linked to the party's
// long-term identity. The chain owner can re-derive every key it has issued;
// counterparties receive a certificate (see the pki package) linking the
// pseudonymous key to an identity only when they need to verify signatures.
type OneTimeKeyChain struct {
	mu     sync.Mutex
	seed   []byte
	next   int
	issued map[string]*PrivateKey // address -> key
}

// ErrUnknownOneTimeKey is returned when a chain is asked to sign with a key
// it never issued.
var ErrUnknownOneTimeKey = errors.New("dcrypto: unknown one-time key")

// NewOneTimeKeyChain creates a chain from a secret seed. The same seed always
// reproduces the same key sequence.
func NewOneTimeKeyChain(seed []byte) (*OneTimeKeyChain, error) {
	if len(seed) < 16 {
		return nil, errors.New("dcrypto: one-time key seed must be at least 16 bytes")
	}
	s := make([]byte, len(seed))
	copy(s, seed)
	return &OneTimeKeyChain{seed: s, issued: make(map[string]*PrivateKey)}, nil
}

// Next derives and records the next one-time key, returning its public half.
func (c *OneTimeKeyChain) Next() (PublicKey, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key, err := DeriveKey(c.seed, "onetime/"+strconv.Itoa(c.next))
	if err != nil {
		return PublicKey{}, fmt.Errorf("derive one-time key %d: %w", c.next, err)
	}
	c.next++
	pub := key.Public()
	c.issued[pub.Address()] = key
	return pub, nil
}

// Sign signs msg with the one-time key identified by its address. Only the
// chain owner can do this, which is what makes the pseudonym spendable.
func (c *OneTimeKeyChain) Sign(address string, msg []byte) (Signature, error) {
	c.mu.Lock()
	key, ok := c.issued[address]
	c.mu.Unlock()
	if !ok {
		return Signature{}, ErrUnknownOneTimeKey
	}
	return key.Sign(msg)
}

// Owns reports whether the chain issued the given address.
func (c *OneTimeKeyChain) Owns(address string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.issued[address]
	return ok
}
