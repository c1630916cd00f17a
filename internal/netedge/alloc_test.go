//go:build !race

package netedge

import (
	"bufio"
	"bytes"
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

// TestAlternatingTopicsAllocateNothing: a session visit's requests alternate
// session.open → gateway.submit → session.close on one connection, which
// the reader's one-topic cache cannot hold; the gateway's topics resolve to
// their constants, so reading them allocates no topic string (it was one per
// change of topic: three a visit).
func TestAlternatingTopicsAllocateNothing(t *testing.T) {
	visit := []string{middleware.TopicSessionOpen, middleware.TopicSubmit, middleware.TopicSubmit, middleware.TopicSessionClose}
	const runs = 100
	var stream []byte
	for i := 0; i < (runs+1)*len(visit); i++ {
		stream = appendFrame(stream, frameRequest, uint64(i), visit[i%len(visit)], []byte("body"))
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	buf := make([]byte, 0, 64)
	topic := ""
	// One run reads one visit's frames: AllocsPerRun floors its quotient.
	allocs := testing.AllocsPerRun(runs, func() {
		for _, want := range visit {
			f, nbuf, err := readFrameTopic(br, buf, DefaultMaxFrame, topic)
			if err != nil || f.topic != want {
				t.Fatalf("topic %q, %v; want %q", f.topic, err, want)
			}
			buf, topic = nbuf, f.topic
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per visit's %d frames, want 0", allocs, len(visit))
	}
}
