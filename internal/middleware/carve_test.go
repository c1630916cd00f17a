//go:build !race

package middleware

import (
	"fmt"
	"testing"
)

// TestSlabCarverHoldsWholeFrames holds both carvers to their geometry: a
// frame that does not fit the tail opens a slab of whole frames of its size,
// as many as the nominal size rounds up to, grown to the allocator's size
// class. Carving a slab's worth of frames of one size four times over costs
// exactly four slabs; a frame of at least the nominal size is an allocation
// of its own. The per-slab counts are the size class's: 17 frames of 500
// bytes ask for 8,500 and get 9,472, room for an 18th. Every carved frame's
// capacity is its size.
func TestSlabCarverHoldsWholeFrames(t *testing.T) {
	const slabs = 4
	for _, tc := range []struct {
		name    string
		nominal int   // the carver's nominal slab size
		sizes   []int // frame sizes, carved in turn
		perSlab int   // frames each slab holds
	}{
		{"sealed/1", sealedFrames.slab, []int{1}, 8192},
		{"sealed/500", sealedFrames.slab, []int{500}, 18},
		// The benchmark's 50-member frame: five in 9,290 bytes, class
		// 9,472, where an 8 KB slab holds four.
		{"sealed/1858", sealedFrames.slab, []int{1858}, 5},
		{"sealed/1859", sealedFrames.slab, []int{1859}, 5},
		// A slab opened by a 1,858-byte frame takes a fifth frame a byte
		// larger in the class's 182 spare bytes, which a slab of exactly
		// five opener-sized frames would not have.
		{"sealed/1858+1859", sealedFrames.slab, []int{1858, 1859}, 5},
		{"sealed/2048", sealedFrames.slab, []int{2048}, 4},
		// Past a quarter of the nominal size a frame is still carved: four
		// of 2,049 bytes ask for 8,196 and get 9,472.
		{"sealed/2049", sealedFrames.slab, []int{2049}, 4},
		{"sealed/4096", sealedFrames.slab, []int{4096}, 2},
		// A batch_groupseal group, 64 of the benchmark's trades: two in
		// 15,940 bytes, class 16,384.
		{"sealed/7970", sealedFrames.slab, []int{7970}, 2},
		{"sealed/nominal", sealedFrames.slab, []int{sealedFrames.slab}, 1},
		{"sealed/over-nominal", sealedFrames.slab, []int{sealedFrames.slab + 1}, 1},
		// A client's session submission: 89 frames ask for 16,554 bytes
		// and get 18,432, room for 99.
		{"wire/186", wireFrames.slab, []int{186}, 99},
		{"wire/4096", wireFrames.slab, []int{4096}, 4},
		{"wire/4097", wireFrames.slab, []int{4097}, 4},
		{"wire/nominal", wireFrames.slab, []int{wireFrames.slab}, 1},
		{"wire/over-nominal", wireFrames.slab, []int{wireFrames.slab + 1}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := &slabCarver{slab: tc.nominal}
			i := 0
			got := testing.AllocsPerRun(10, func() {
				for range slabs * tc.perSlab {
					size := tc.sizes[i%len(tc.sizes)]
					i++
					if b := c.carve(size); len(b) != 0 || cap(b) != size {
						panic(fmt.Sprintf("carve(%d) returned length %d, capacity %d", size, len(b), cap(b)))
					}
				}
			})
			if got != slabs {
				t.Errorf("%d frames of %v bytes cost %v allocations, want %d: a slab holds %d of them", slabs*tc.perSlab, tc.sizes, got, slabs, tc.perSlab)
			}
		})
	}
	// A frame of the nominal size leaves the pooled slab's tail to the
	// frames after it: half a slab, a whole one, half a slab and a whole one
	// cost one slab of two halves and two frames of their own. A one-frame
	// slab opened for the whole frame would drop the tail, and the second
	// half would open a slab of its own.
	t.Run("nominal-keeps-the-tail", func(t *testing.T) {
		c := &slabCarver{slab: sealedFrames.slab}
		got := testing.AllocsPerRun(10, func() {
			for range slabs {
				for _, size := range []int{c.slab / 2, c.slab, c.slab / 2, c.slab} {
					if b := c.carve(size); len(b) != 0 || cap(b) != size {
						panic(fmt.Sprintf("carve(%d) returned length %d, capacity %d", size, len(b), cap(b)))
					}
				}
			}
		})
		if got != 3*slabs {
			t.Errorf("%d rounds of a half, a whole, a half and a whole slab cost %v allocations, want %d", slabs, got, 3*slabs)
		}
	})
	t.Run("empty", func(t *testing.T) {
		c := &slabCarver{slab: sealedFrames.slab}
		if got := testing.AllocsPerRun(100, func() { c.carve(0) }); got != 0 {
			t.Errorf("an empty frame costs %v allocations, want 0", got)
		}
	})
}
