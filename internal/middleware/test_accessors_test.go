package middleware

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// pendingCount reports the number of contributions buffered across all open
// groups.
func (a *aggregateStage) pendingCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, g := range a.pending {
		n += g.count
	}
	return n
}

// shown reports how many distinct credential tokens the stage has
// accepted.
func (a *anonCredStage) shown() int { return a.shows.Shown() }

// epoch reports the current data-key epoch for a channel (0 when no cached
// key exists yet or the cache is disabled).
func (e *encryptStage) epoch(channel string) uint64 {
	if e.keyTTL <= 0 {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ck, ok := e.keys[channel]; ok {
		return ck.epoch
	}
	return 0
}
