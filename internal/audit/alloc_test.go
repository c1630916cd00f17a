//go:build !race

package audit

import (
	"runtime"
	"testing"
)

// TestRecordAllocations pins what the submit path relies on: Record copies
// its item and keeps nothing of the caller's, so a duplicate allocates
// nothing, a new 32-digit ID built on the caller's stack allocates only the
// log's own amortised growth, and a distinct observation holds at most 40
// bytes of heap: a 16-byte entry, the ID's 16 packed bytes and 5-10 bytes
// of index, depending on how full it is (the map-and-slice log held 178
// plus the item string). The race detector instruments allocation, hence
// the tag.
func TestRecordAllocations(t *testing.T) {
	l := NewLog()
	l.Record("gateway-op", ClassIdentity, "org-00")
	if allocs := testing.AllocsPerRun(1000, func() { l.Record("gateway-op", ClassIdentity, "org-00") }); allocs != 0 {
		t.Errorf("%v allocations per duplicate Record, want 0", allocs)
	}

	const distinct = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < distinct; i++ {
		var id [32]byte
		fillID(&id, i)
		l.Record("gateway-op", ClassTxMetadata, string(id[:]))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := l.Len(); got != distinct+1 {
		t.Fatalf("Len = %d, want %d", got, distinct+1)
	}
	if perCall := float64(after.Mallocs-before.Mallocs) / distinct; perCall >= 0.1 {
		t.Errorf("%.3f allocations per new 32-digit ID, want < 0.1 (growth only)", perCall)
	}
	perObs := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / distinct
	if perObs > 40 {
		t.Errorf("%.0f heap bytes per distinct 32-digit observation, want <= 40", perObs)
	}
	if held := float64(l.Footprint()); held < 0.9*perObs*distinct || held > 1.1*perObs*distinct+chunkSize {
		t.Errorf("Footprint = %.0f, but the heap grew by %.0f", held, perObs*distinct)
	}
	t.Logf("%.0f heap bytes and %.4f allocations per distinct observation", perObs,
		float64(after.Mallocs-before.Mallocs)/distinct)
}
