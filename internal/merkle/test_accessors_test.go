package merkle

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// Leaf returns a copy of leaf i.
func (t *Tree) Leaf(i int) ([]byte, error) {
	if i < 0 || i >= len(t.leaves) {
		return nil, ErrIndexRange
	}
	return append([]byte(nil), t.leaves[i]...), nil
}
