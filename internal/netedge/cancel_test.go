package netedge

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// watchedLen reports how many context registrations c holds.
func watchedLen(c *Client) int {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	return len(c.watched)
}

// TestPendingCallCancellation cancels calls that are in flight behind a
// handler stalled on a gate, with a window of two: a cancelled call returns
// its context's error at once, its late reply is dropped and its slot comes
// back; a CallAsync's context does not reach its reply, Wait's does; a call
// under an ended context returns; and no context registration outlives its
// context or the connection.
func TestPendingCallCancellation(t *testing.T) {
	gate := make(chan struct{})
	srv, err := Listen("127.0.0.1:0", HandlerFunc(func(_ context.Context, _ string, payload []byte, _ string) ([]byte, error) {
		<-gate
		return payload, nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), WithInFlight(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bg := context.Background()

	// A Call under a deadline comes back with it while the handler stalls.
	dctx, dcancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer dcancel()
	start := time.Now()
	if _, err := c.Call(dctx, "t", []byte("stalled")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call past its deadline: %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Call past a 50ms deadline returned after %v", d)
	}

	// CallAsync's context guards only the send: cancelling it afterwards
	// does not touch the reply.
	actx, acancel := context.WithCancel(bg)
	async, err := c.CallAsync(actx, "t", []byte("async"))
	if err != nil {
		t.Fatal(err)
	}
	acancel()

	// Wait under a context that then ends returns that context's error.
	waited, err := c.CallAsync(bg, "t", []byte("waited"))
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(bg)
	waitErr := make(chan error, 1)
	go func() {
		_, err := waited.Wait(wctx)
		waitErr <- err
	}()
	wcancel()
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait under a cancelled context: %v, want context.Canceled", err)
	}
	if _, err := waited.Wait(bg); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Wait: %v, want the first settlement again", err)
	}

	// A Call under a context that has already ended returns, whichever way
	// it goes: refused at the window or settled at once.
	cctx, ccancel := context.WithCancel(bg)
	ccancel()
	if _, err := c.Call(cctx, "t", []byte("cancelled")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Call under an ended context: %v, want context.Canceled", err)
	}
	if n := watchedLen(c); n != 0 {
		t.Fatalf("%d context registrations left once their contexts ended, want 0", n)
	}

	close(gate)
	if b, err := async.Wait(bg); err != nil || string(b) != "async" {
		t.Fatalf("CallAsync whose context was cancelled after the send: %q, %v; want its echo", b, err)
	}
	// The late replies were dropped and every slot came back: each of more
	// calls than the window holds gets its own echo.
	for i := 0; i < 4; i++ {
		want := []byte{'n', byte('0' + i)}
		if b, err := c.Call(bg, "t", want); err != nil || !bytes.Equal(b, want) {
			t.Fatalf("call %d after the gate opened: %q, %v; want %q", i, b, err, want)
		}
	}
	if len(c.window) != 0 {
		t.Fatalf("%d window slots held with nothing in flight, want 0", len(c.window))
	}

	// A registration lives as long as its context or the connection.
	lctx, lcancel := context.WithCancel(bg)
	defer lcancel()
	if _, err := c.Call(lctx, "t", []byte("live")); err != nil {
		t.Fatal(err)
	}
	if n := watchedLen(c); n != 1 {
		t.Fatalf("%d context registrations under a live context, want 1", n)
	}
	c.Close()
	if n := watchedLen(c); n != 0 {
		t.Fatalf("%d context registrations after Close, want 0", n)
	}
	assertDrained(t, c)
}

// TestOversizedRequestIsRefused sends a request the server's frame bound
// would refuse: the client refuses it first with ErrFrameTooBig, so the
// server never counts a frame error or drops the connection, and a call in
// flight beside it and the call after it both succeed.
func TestOversizedRequestIsRefused(t *testing.T) {
	srv := listenEcho(t)
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if b, err := c.Call(ctx, "t", []byte("beside")); err != nil || string(b) != "beside" {
				t.Errorf("concurrent call %d: %q, %v", i, b, err)
				return
			}
		}
	}()
	if _, err := c.Call(ctx, "t", make([]byte, DefaultMaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized Call: %v, want ErrFrameTooBig", err)
	}
	if _, err := c.CallAsync(ctx, "t", make([]byte, DefaultMaxFrame+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized CallAsync: %v, want ErrFrameTooBig", err)
	}
	wg.Wait()
	if b, err := c.Call(ctx, "t", []byte("after")); err != nil || string(b) != "after" {
		t.Fatalf("call after the oversized one: %q, %v", b, err)
	}
	if n := srv.Stats().FrameErrors; n != 0 {
		t.Fatalf("server counted %d frame errors, want 0", n)
	}
	if len(c.window) != 0 {
		t.Fatalf("%d window slots held with nothing in flight, want 0", len(c.window))
	}
}
