package ledger

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// Keys returns all live world-state keys.
func (l *Ledger) Keys() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.state))
	for k := range l.state {
		out = append(out, k)
	}
	return out
}

// SetValidator installs a transaction validator applied during Append.
func (l *Ledger) SetValidator(v TxValidator) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.validator = v
}
