package dcrypto

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// Issued returns the number of keys handed out so far.
func (c *OneTimeKeyChain) Issued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.issued)
}

// Equal reports whether two public keys are identical.
func (pk PublicKey) Equal(other PublicKey) bool {
	if pk.X == nil || other.X == nil {
		return pk.X == other.X && pk.Y == other.Y
	}
	return pk.X.Cmp(other.X) == 0 && pk.Y.Cmp(other.Y) == 0
}
