//go:build !race

package netedge

import (
	"context"
	"testing"

	"dltprivacy/internal/middleware"
)

// TestCallAllocations pins what one synchronous round trip allocates, on
// both ends of the socket together: the caller's copy of the reply and
// nothing else. It was 7: the frame header read on each side (a local array
// escaping through io.ReadFull), the request's topic string, and Call's
// PendingCall, reply channel and channel buffer. The race detector makes
// sync.Pool drop items at random, hence the build tag.
func TestCallAllocations(t *testing.T) {
	srv := listenEcho(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	payload := make([]byte, 64)
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Call(ctx, middleware.TopicSubmit, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("%v allocations per echo Call, want 1 (the reply copy)", allocs)
	}
}
