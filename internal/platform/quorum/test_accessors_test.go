package quorum

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// PublicState reads the node's public view of a key.
func (nd *Node) PublicState(key string) ([]byte, bool) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	v, ok := nd.publicState[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}
