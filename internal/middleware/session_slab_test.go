package middleware

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dltprivacy/internal/dcrypto"
)

// slabSession is one session TestCarvedSessionRecordsStayTheirOwn opens: who
// opened it over which connection, its grant, the record the wire decoder
// would hand a request naming it, and the error a request meets once the
// session has died (nil for a survivor).
type slabSession struct {
	who    *principal
	conn   string
	grant  SessionGrant
	record *session
	want   error
}

// openSlabSession opens a session for p, bound to conn, and looks up its
// record as the wire decoder does.
func openSlabSession(mgr *SessionManager, p *principal, conn string) (slabSession, error) {
	hello, err := newSessionHelloAt(p.name, p.cert, p.key, mgr.now())
	if err != nil {
		return slabSession{}, err
	}
	grant, err := mgr.OpenBound(hello, conn)
	if err != nil {
		return slabSession{}, fmt.Errorf("open for %s: %w", p.name, err)
	}
	key, _ := parseSessionKey(grant.Token)
	s := slabSession{who: p, conn: conn, grant: grant, record: mgr.lookup(&key)}
	if s.record == nil {
		return s, fmt.Errorf("the table holds no record for %s's new token %q", p.name, grant.Token)
	}
	return s, nil
}

// check holds s to its fate. Its record still reads as its own — key,
// principal, binding — whatever was carved next to it since. A survivor
// admits, by the record and by the token, under its own principal, and its
// record's MAC key verifies a tag made with the grant's. A dead session meets
// its error both ways.
func (s *slabSession) check(mgr *SessionManager, now time.Time) error {
	key, _ := parseSessionKey(s.grant.Token)
	if s.record.key != key || s.record.principal != s.who.name || s.record.boundTo != s.conn {
		return fmt.Errorf("the record of %s's session reads key %x, principal %q, bound to %q",
			s.who.name, s.record.key[:4], s.record.principal, s.record.boundTo)
	}
	for _, held := range []*session{s.record, nil} {
		got, err := mgr.admit(now, held, s.grant.Token, s.conn)
		if s.want != nil {
			if !errors.Is(err, s.want) {
				return fmt.Errorf("%s's dead session (held record %v): %v, want %v", s.who.name, held != nil, err, s.want)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("%s's live session (held record %v): %v", s.who.name, held != nil, err)
		}
		msg := []byte(s.grant.Token)
		tag := dcrypto.MAC(s.grant.MacKey, msg)
		if got != s.record || got.principal != s.who.name || got.macKey.Verify(msg, tag[:]) != nil {
			return fmt.Errorf("%s's live session admits as %q under another record or MAC key", s.who.name, got.principal)
		}
	}
	return nil
}

// TestCarvedSessionRecordsStayTheirOwn holds the session records carved from
// the manager's slabs to their sessions. It opens four slabs' worth, then
// kills every other session — closed, displaced by the per-principal cap,
// reaped with its connection, revoked — the four deaths taking turns, so
// that every slab holds survivors beside the dead. Each survivor still
// admits with its own principal and MAC key, by its record and by its token;
// each dead one meets its error both ways, and its record still reads as it
// did (no slot is carved twice). Then four goroutines each open three slabs'
// worth of sessions of their own, past the cap, and after each open admit
// their live sessions and every survivor and refuse their last displaced
// ones: opens carving the slots beside records that admits are reading,
// which the race detector must see clean.
func TestCarvedSessionRecordsStayTheirOwn(t *testing.T) {
	clock := newFakeClock()
	names := []string{"keep-0", "keep-1", "keep-2", "keep-3", "closer", "capped", "wanderer", "revoked"}
	const racers = 4
	for w := 0; w < racers; w++ {
		names = append(names, fmt.Sprintf("racer-%d", w))
	}
	ca, people := enrollAt(t, clock.now, names...)
	const perPrincipal = 6
	mgr, err := NewSessionManager(ca.PublicKey(), time.Hour, time.Hour, clock.now,
		withMaxPerPrincipal(perPrincipal), withRevoker(pullRevoker{ca}))
	if err != nil {
		t.Fatal(err)
	}
	const live, dead = "tcp:1:live", "tcp:2:dead"
	var all []slabSession
	open := func(name, conn string, want error) {
		t.Helper()
		s, err := openSlabSession(mgr, people[name], conn)
		if err != nil {
			t.Fatal(err)
		}
		s.want = want
		all = append(all, s)
	}
	for i := 0; i < 4*sessionSlabLen; i++ {
		switch i % 8 {
		case 0, 4:
			open(fmt.Sprintf("keep-%d", i/2%4), live, nil)
		case 2, 6:
			open(fmt.Sprintf("keep-%d", i/2%4), "", nil)
		case 1:
			open("closer", "", ErrNoSession)
		case 3:
			open("capped", "", ErrNoSession)
		case 5:
			open("wanderer", dead, ErrNoSession)
		case 7:
			open("revoked", "", ErrSessionRevoked)
		}
	}
	wandered := 0
	for _, s := range all {
		switch s.who.name {
		case "closer":
			mgr.close(s.grant.Token)
		case "wanderer":
			wandered++
		}
	}
	for i := 0; i < perPrincipal; i++ {
		open("capped", "", nil) // displaces every earlier one
	}
	if n := mgr.EvictTransport(dead); n != wandered {
		t.Fatalf("EvictTransport reaped %d sessions, want %d", n, wandered)
	}
	ca.Revoke(people["revoked"].cert.Serial)
	for i := range all {
		if err := all[i].check(mgr, clock.now()); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}

	var survivors []slabSession
	for _, s := range all {
		if s.want == nil {
			survivors = append(survivors, s)
		}
	}
	const keepDead = 2 // displaced sessions a racer goes on checking
	var wg sync.WaitGroup
	for w := 0; w < racers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := people[fmt.Sprintf("racer-%d", w)]
			var mine []slabSession
			for i := 0; i < 3*sessionSlabLen; i++ {
				s, err := openSlabSession(mgr, p, "")
				if err != nil {
					t.Errorf("racer %d: %v", w, err)
					return
				}
				mine = append(mine, s)
				for j := range mine {
					if j < len(mine)-perPrincipal {
						mine[j].want = ErrNoSession
					}
					if err := mine[j].check(mgr, clock.now()); err != nil {
						t.Errorf("racer %d, its session %d: %v", w, j, err)
						return
					}
				}
				if len(mine) > keepDead+perPrincipal {
					mine = mine[len(mine)-keepDead-perPrincipal:]
				}
				for j := range survivors {
					if err := survivors[j].check(mgr, clock.now()); err != nil {
						t.Errorf("racer %d, survivor %d: %v", w, j, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCarvedGrantsStayTheCallers holds the client grants carved from a
// Handshaker's chunks to their callers. Four goroutines open sessions through
// one Handshaker, so their grants interleave in its chunks, and each answer
// is appended into a reply buffer the goroutine reuses, as an edge reuses its
// frame. Every grant's MacKey must have no spare capacity: appending to the
// previous grant's must reallocate. At the end, with every reply buffer
// overwritten, each grant still carries the token the manager issued and the
// MAC key it returned, and the manager's key for that token verifies a tag
// made with it.
func TestCarvedGrantsStayTheCallers(t *testing.T) {
	f := newResumeFixture(t)
	const workers, perWorker = 4, 2 * grantChunkSize / grantBytes
	type kept struct {
		grant  SessionGrant
		token  string
		macKey []byte
	}
	all := make([][]kept, workers)
	replies := make([][]byte, workers)
	var wg sync.WaitGroup
	for w := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var issued string
			roundTrip := func(_ context.Context, frame []byte) ([]byte, error) {
				grant, err := openFrame(f.mgr, frame, f.wire.transportID)
				if err != nil {
					return nil, err
				}
				issued = grant.Token
				replies[w] = appendGrantFrame(replies[w][:0], &grant)
				return replies[w], nil
			}
			for i := 0; i < perWorker; i++ {
				g, err := f.client.Open(context.Background(), "alice", f.alice.cert, f.alice.key, roundTrip)
				if err != nil {
					t.Error(err)
					return
				}
				if g.Token != issued || len(g.MacKey) != dcrypto.MACKeySize || cap(g.MacKey) != len(g.MacKey) {
					t.Errorf("worker %d grant %d: token %q (issued %q), MacKey of %d bytes with capacity %d",
						w, i, g.Token, issued, len(g.MacKey), cap(g.MacKey))
					return
				}
				all[w] = append(all[w], kept{g, strings.Clone(g.Token), bytes.Clone(g.MacKey)})
				if i == 0 {
					continue
				}
				prev := all[w][i-1].grant.MacKey
				if grown := append(prev, 0xFF, 0xFF); &grown[0] == &prev[0] {
					t.Errorf("worker %d grant %d: appending to its MacKey wrote past its end", w, i-1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, reply := range replies {
		for i := range reply {
			reply[i] = 0xAA
		}
	}
	for w, grants := range all {
		for i, k := range grants {
			if k.grant.Token != k.token || !bytes.Equal(k.grant.MacKey, k.macKey) {
				t.Fatalf("worker %d grant %d: token or MacKey changed under its caller", w, i)
			}
			principal, key, err := admitToken(f.mgr, k.grant.Token, f.wire.transportID)
			if err != nil {
				t.Fatalf("worker %d grant %d: %v", w, i, err)
			}
			msg := []byte(k.token)
			tag := dcrypto.MAC(k.grant.MacKey, msg)
			if principal != "alice" || key.Verify(msg, tag[:]) != nil {
				t.Fatalf("worker %d grant %d: the manager's session is %q's, or its key is not the grant's", w, i, principal)
			}
		}
	}
}

// TestSessionRecordSlabFillsItsSizeClass holds the arithmetic of the slabs
// session records and client grants are carved from: sessionSlabLen records
// fit the 4,096-byte size class and one more would not, so a slab wastes
// less than a record; and grantChunkSize holds 42 grants.
func TestSessionRecordSlabFillsItsSizeClass(t *testing.T) {
	const class = 4096
	size := int(unsafe.Sizeof(session{}))
	if sessionSlabLen*size > class || (sessionSlabLen+1)*size <= class {
		t.Fatalf("a session record is %d bytes: %d of them are %d B, %d are %d B; want the slab of %d to fill the %d-byte size class",
			size, sessionSlabLen, sessionSlabLen*size, sessionSlabLen+1, (sessionSlabLen+1)*size, sessionSlabLen, class)
	}
	if n := grantChunkSize / grantBytes; n != 42 || grantChunkSize != class {
		t.Fatalf("a grant chunk of %d bytes holds %d grants, want 42 in %d", grantChunkSize, n, class)
	}
}

// TestSessionChurnHeapIsFlat: carving must not keep dead sessions alive. One
// client runs 20,000 resumed visits — open, then close the session opened 200
// visits before — so at most 200 sessions live, on a clock that moves 25 ms a
// visit: the nonce memory forgets as it goes, and the fixture's own session
// idles out. After a first 10,000 visits have grown every table to its
// steady size, the next 10,000 may grow the heap left after a collection by
// at most churnHeapGrowth. The 200 live sessions are the newest, so at
// either reading they pin about 20 session slabs and 6 grant chunks; a dead
// record or grant kept alive would add 352 B or 96 B a visit, 3.5 MB or
// 0.96 MB over the 10,000.
func TestSessionChurnHeapIsFlat(t *testing.T) {
	f := newResumeFixture(t)
	const visits, liveAtMost = 20_000, 200
	var reply []byte
	roundTrip := func(_ context.Context, frame []byte) ([]byte, error) {
		grant, err := openFrame(f.mgr, frame, f.wire.transportID)
		if err != nil {
			return nil, err
		}
		reply = appendGrantFrame(reply[:0], &grant)
		return reply, nil
	}
	var open []string
	visit := func() {
		f.clock.advance(25 * time.Millisecond)
		g, err := f.client.Open(context.Background(), "alice", f.alice.cert, f.alice.key, roundTrip)
		if err != nil {
			t.Fatal(err)
		}
		if open = append(open, g.Token); len(open) > liveAtMost {
			f.mgr.close(open[0])
			open = open[1:]
		}
	}
	heap := func() int64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	for i := 0; i < visits/2; i++ {
		visit()
	}
	before := heap()
	for i := 0; i < visits/2; i++ {
		visit()
	}
	grown := heap() - before
	t.Logf("heap grew %d B over %d visits with %d sessions live", grown, visits/2, f.mgr.Len())
	if f.mgr.Len() != liveAtMost {
		t.Fatalf("%d sessions live, want %d", f.mgr.Len(), liveAtMost)
	}
	if grown > churnHeapGrowth {
		t.Fatalf("heap grew %d B over %d visits with at most %d sessions live, want at most %d B",
			grown, visits/2, liveAtMost, churnHeapGrowth)
	}
}

// churnHeapGrowth is the bound of TestSessionChurnHeapIsFlat: a quarter of
// what keeping every dead grant alive would add.
const churnHeapGrowth = 256 << 10
