package anoncred

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// TokensLeft reports the number of unused tokens for an attribute set.
func (w *Wallet) TokensLeft(attrs []string) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.tokens[string(canonicalAttrs(attrs))])
}
