package netedge

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/pki"
)

// serveSessions starts a session-only gateway for ca's principals behind a
// loopback edge on addr ("127.0.0.1:0" for a fresh port).
func serveSessions(t *testing.T, addr string, ca *pki.CA) *refusalEdge {
	t.Helper()
	return serveRefusalsAt(t, addr, "session(ttl=1h,idle=1h)", middleware.Env{CAKey: ca.PublicKey(), Revoker: ca}, acceptingOrderer())
}

// metric reads one unlabelled series off /metrics.
func (e *refusalEdge) metric(t *testing.T, series string) uint64 {
	t.Helper()
	var sb strings.Builder
	if err := e.reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			var n uint64
			if _, err := fmt.Sscan(rest, &n); err != nil {
				t.Fatalf("unreadable series %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("no series %s on /metrics", series)
	return 0
}

// opens reads the session counters: opened, resumed, resume misses.
func (e *refusalEdge) opens(t *testing.T) (opened, resumed, missed uint64) {
	t.Helper()
	return e.metric(t, "confmw_sessions_opened_total"), e.metric(t, "confmw_session_resumed_total"), e.metric(t, "confmw_session_resume_misses_total")
}

// TestResumeNeedsTheCertifiedKey holds a secret for alice's certificate and
// key and opens under that certificate with another key, over the Client
// that holds it and over a second one dialed to the same gateway: neither
// resumes, and the gateway refuses the full hello each sends. A nil key is
// an error, on the Clients that share the secret and on one that holds
// none. alice's own key still resumes afterwards, on both.
func TestResumeNeedsTheCertifiedKey(t *testing.T) {
	ca := mustCA(t)
	alice, bob := enrollWith(t, ca, "alice"), enrollWith(t, ca, "bob")
	e := serveSessions(t, "127.0.0.1:0", ca)
	ctx := context.Background()
	first, second := e.dial(t), e.dial(t)
	if grant, err := first.OpenSession(ctx, "alice", alice.cert, alice.key, ""); err != nil || grant.Resumed {
		t.Fatalf("alice's first open: resumed %v, %v; want a full handshake", grant.Resumed, err)
	}
	otherKey := func(t *testing.T, c *Client) {
		refused := e.rejected(t)["session.open/bad_signature"]
		grant, err := c.OpenSession(ctx, "alice", alice.cert, bob.key, "")
		if !errors.Is(err, middleware.ErrBadSignature) || grant.Resumed {
			t.Fatalf("alice's certificate under bob's key: resumed %v, %v; want ErrBadSignature", grant.Resumed, err)
		}
		if n := e.rejected(t)["session.open/bad_signature"] - refused; n != 1 {
			t.Fatalf("the gateway refused %d full hellos as bad signatures, want 1", n)
		}
	}
	t.Run("another key on the same client", func(t *testing.T) { otherKey(t, first) })
	t.Run("another key on a second client", func(t *testing.T) { otherKey(t, second) })
	t.Run("nil key", func(t *testing.T) {
		conn, err := net.Dial("tcp", e.srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fresh := newClient(conn, dialOptions{inFlight: 16})
		defer fresh.Close()
		for i, c := range []*Client{first, second, fresh} {
			if _, err := c.OpenSession(ctx, "alice", alice.cert, nil, ""); err == nil {
				t.Errorf("client %d opened a session with a nil key", i)
			}
		}
	})
	t.Run("own key resumes", func(t *testing.T) {
		for i, c := range []*Client{first, second} {
			if grant, err := c.OpenSession(ctx, "alice", alice.cert, alice.key, ""); err != nil || !grant.Resumed {
				t.Fatalf("client %d, alice's own key after the refusals: resumed %v, %v; want resumed", i, grant.Resumed, err)
			}
		}
	})
}

// TestClientsOnOneAddressShareResumption dials two Clients to one gateway:
// the second's first open resumes the secret the first's full handshake
// established, so the gateway checks the certificate once and holds one
// resumption entry for it.
func TestClientsOnOneAddressShareResumption(t *testing.T) {
	ca := mustCA(t)
	alice := enrollWith(t, ca, "alice")
	e := serveSessions(t, "127.0.0.1:0", ca)
	ctx := context.Background()
	if grant, err := e.dial(t).OpenSession(ctx, "alice", alice.cert, alice.key, ""); err != nil || grant.Resumed {
		t.Fatalf("first connection: resumed %v, %v; want a full handshake", grant.Resumed, err)
	}
	if grant, err := e.dial(t).OpenSession(ctx, "alice", alice.cert, alice.key, ""); err != nil || !grant.Resumed {
		t.Fatalf("second connection: resumed %v, %v; want resumed", grant.Resumed, err)
	}
	for _, series := range []string{"confmw_session_resumed_total", "confmw_session_cert_verifications_total", "confmw_session_resume_entries"} {
		if n := e.metric(t, series); n != 1 {
			t.Errorf("%s = %d, want 1", series, n)
		}
	}
}

// TestRestartedGatewayMissesThenHandshakes closes a gateway whose secret
// this process holds and starts another on the same address: the next
// Client's open names a secret the new gateway never issued, is told so, and
// runs the full handshake inside the same call.
func TestRestartedGatewayMissesThenHandshakes(t *testing.T) {
	ca := mustCA(t)
	alice := enrollWith(t, ca, "alice")
	before := serveSessions(t, "127.0.0.1:0", ca)
	ctx := context.Background()
	if _, err := before.dial(t).OpenSession(ctx, "alice", alice.cert, alice.key, ""); err != nil {
		t.Fatal(err)
	}
	before.srv.Close()

	after := serveSessions(t, before.srv.Addr().String(), ca)
	grant, err := after.dial(t).OpenSession(ctx, "alice", alice.cert, alice.key, "")
	if err != nil || grant.Resumed || len(grant.MacKey) != dcrypto.MACKeySize {
		t.Fatalf("open after the restart: resumed %v, %v; want a full handshake and a MAC key", grant.Resumed, err)
	}
	if opened, resumed, missed := after.opens(t); missed != 1 || opened != 1 || resumed != 0 {
		t.Fatalf("missed %d, opened %d, resumed %d; want 1, 1, 0", missed, opened, resumed)
	}
}

// TestConcurrentOpensAcrossClientsShareOneHandshake opens one principal from
// 8 goroutines on each of 4 Clients dialed to one gateway, all at once: one
// full handshake between them, every other open resumed.
func TestConcurrentOpensAcrossClientsShareOneHandshake(t *testing.T) {
	const clients, callers = 4, 8
	ca := mustCA(t)
	alice := enrollWith(t, ca, "alice")
	e := serveSessions(t, "127.0.0.1:0", ca)
	conns := make([]*Client, clients)
	for i := range conns {
		conns[i] = e.dial(t)
	}
	start := make(chan struct{})
	errs := make(chan error, clients*callers)
	var wg sync.WaitGroup
	for _, c := range conns {
		for j := 0; j < callers; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				grant, err := c.OpenSession(context.Background(), "alice", alice.cert, alice.key, "")
				if err == nil && len(grant.MacKey) != dcrypto.MACKeySize {
					err = fmt.Errorf("grant with a %d-byte MAC key", len(grant.MacKey))
				}
				errs <- err
			}()
		}
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if opened, resumed, missed := e.opens(t); opened != clients*callers || opened-resumed != 1 || missed != 0 {
		t.Fatalf("opened %d, resumed %d, missed %d; want %d opens and one full handshake", opened, resumed, missed, clients*callers)
	}
}

// TestHandshakerTableIsBounded asks for the Handshakers of three times as
// many addresses as the table holds: it never holds more than its bound,
// and an address asked for again before the table is dropped gets the same
// Handshaker.
func TestHandshakerTableIsBounded(t *testing.T) {
	for i := 0; i < 3*handshakerAddrs; i++ {
		addr := fmt.Sprintf("bound.invalid:%d", i)
		h := handshakerFor(addr)
		if h != handshakerFor(addr) {
			t.Fatalf("address %d: a second Handshaker for the same address", i)
		}
		handshakersMu.Lock()
		n := len(handshakers)
		handshakersMu.Unlock()
		if n > handshakerAddrs {
			t.Fatalf("after %d addresses the table holds %d, bound %d", i+1, n, handshakerAddrs)
		}
	}
}
