package workload

// What only this package's tests call. No binary links it, so it lives in
// a test file; TestReachedMeansKept (reach_test.go at the module root) fails
// on unreached code outside one.

// Ballots returns n synthetic yes/no vote maps for the given parties.
func (g *Generator) Ballots(parties []string, n int) []map[string]bool {
	out := make([]map[string]bool, n)
	for i := range out {
		votes := make(map[string]bool, len(parties))
		for _, p := range parties {
			votes[p] = g.rng.Intn(2) == 1
		}
		out[i] = votes
	}
	return out
}
