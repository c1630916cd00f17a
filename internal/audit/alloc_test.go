//go:build !race

package audit

import (
	"runtime"
	"testing"
)

// TestRecordAllocations pins what the submit path relies on: once its pair
// exists, Record allocates nothing, whether the item repeats or is a new
// 32-digit ID built on the caller's stack, and the log does not grow. The
// race detector instruments allocation, hence the tag.
func TestRecordAllocations(t *testing.T) {
	l := NewLog()
	l.Record("gateway-op", ClassIdentity, "org-00")
	l.Record("gateway-op", ClassTxMetadata, "first")
	held := l.Footprint()
	if allocs := testing.AllocsPerRun(1000, func() { l.Record("gateway-op", ClassIdentity, "org-00") }); allocs != 0 {
		t.Errorf("%v allocations per duplicate Record, want 0", allocs)
	}
	n := 0
	if allocs := testing.AllocsPerRun(100_000, func() {
		var id [32]byte
		fillID(&id, n)
		n++
		l.Record("gateway-op", ClassTxMetadata, string(id[:]))
	}); allocs != 0 {
		t.Errorf("%v allocations per new 32-digit ID, want 0", allocs)
	}
	if got := l.Footprint(); got != held {
		t.Errorf("Footprint = %d after %d new IDs, want %d", got, n, held)
	}
}

// TestReplicatedTransactionAllocations records one transaction as the submit
// path does through a gateway in front of a 3-replica shard: the gateway's
// request ID, the principal's identity, then the transaction ID once per
// replica. Once its pairs exist it allocates nothing.
func TestReplicatedTransactionAllocations(t *testing.T) {
	replicas := []string{"orderer-op-0-0", "orderer-op-0-1", "orderer-op-0-2"}
	l := NewLog()
	i := 0
	tx := func() {
		var req, tx [32]byte
		fillID(&req, 2*i)
		fillID(&tx, 2*i+1)
		i++
		l.Record("gateway-op", ClassTxMetadata, string(req[:]))
		l.Record("gateway-op", ClassIdentity, "org-00")
		for _, op := range replicas {
			l.Record(op, ClassTxMetadata, string(tx[:]))
		}
	}
	tx()
	if allocs := testing.AllocsPerRun(100_000, tx); allocs != 0 {
		t.Errorf("%v allocations per replicated transaction, want 0", allocs)
	}
	if got, want := l.Len(), 5*i; got != want {
		t.Fatalf("Len = %d, want %d records", got, want)
	}
}

// TestFootprintConstant is the soak: 5 M records of fresh 32-digit IDs over
// six pairs. Footprint at 5 M equals its value at 1 M, and the heap after a
// forced collection grows by less than 0.01 B a record in between (the
// history this log once kept grew by 30). The bound is absolute because the
// test's heap is under 100 KB and the runtime, starting an OS thread while
// the loop runs, adds 5 KB of its own to it now and then.
func TestFootprintConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("5 M records")
	}
	observers := []string{"gateway-op", "orderer-op-0-0", "orderer-op-0-1", "orderer-op-0-2", "orderer-op-1-0", "orderer-op-1-1"}
	l := NewLog()
	record := func(from, to int) {
		for i := from; i < to; i++ {
			var id [32]byte
			fillID(&id, i)
			l.Record(observers[i%len(observers)], ClassTxMetadata, string(id[:]))
		}
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	const first, last = 1_000_000, 5_000_000
	record(0, first)
	held, heap1 := l.Footprint(), heap()
	record(first, last)
	if got := l.Footprint(); got != held {
		t.Errorf("Footprint = %d at 5 M records, %d at 1 M", got, held)
	}
	heap5 := heap()
	if grown := heap5 - heap1; grown > (last-first)/100 {
		t.Errorf("heap after GC: %d B at 5 M records, %d B at 1 M: %.4f B a record, want < 0.01", heap5, heap1, float64(grown)/(last-first))
	}
	if got := l.Len(); got != last {
		t.Fatalf("Len = %d, want %d", got, last)
	}
	t.Logf("Footprint %d B over %d pairs; heap %d B at 1 M records, %d B at 5 M", held, len(observers), heap1, heap5)
}
