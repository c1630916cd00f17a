package netedge

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// TestGroupSealOwnsBufferedPayloads is the regression test for the
// cross-channel plaintext aliasing: in deferred-seal mode the batch stage
// holds plaintext members past ServeWire's return, while the edge's read
// loop reuses one buffer per connection for every frame — so a member that
// merely borrowed its payload would be sealed holding a later frame's
// bytes, possibly another channel's under this channel's key. Two
// connections each interleave two channels with distinct, differently
// sized payloads through session(mac)|authn|encrypt|audit(auditasync)|
// batch(groupseal=on) over a real socket; every member a channel's group
// envelopes open to must be exactly what was submitted on that channel.
// Under -race it also proves the held bytes are not the read buffer.
func TestGroupSealOwnsBufferedPayloads(t *testing.T) {
	const (
		groupSize = 8
		perConn   = 4 * groupSize // per channel, per connection
		inFlight  = 4
	)
	channels := []string{"deals-a", "deals-b"}

	ca, err := pki.NewCA("edge-ca")
	if err != nil {
		t.Fatal(err)
	}
	dir := middleware.NewSyncDirectory()
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: map[string]string{"ttl": "1h", "idle": "1h", "reqauth": "mac"}},
			{Name: middleware.StageAuthn},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
			{Name: middleware.StageAudit, Params: map[string]string{"auditasync": "64"}},
			{Name: middleware.StageBatch, Params: map[string]string{"size": fmt.Sprint(groupSize), "groupseal": "on"}},
		},
	}
	ord := ordering.New("op", ordering.VisibilityEnvelope)
	var mu sync.Mutex
	sealed := make(map[string][][]byte) // channel -> released group envelopes
	for _, ch := range channels {
		ch := ch
		ord.Subscribe(ch, func(b ledger.Block) error {
			mu.Lock()
			defer mu.Unlock()
			for _, tx := range b.Txs {
				sealed[ch] = append(sealed[ch], tx.Payload)
			}
			return nil
		})
	}
	gw, err := middleware.NewGateway("edge-gw", cfg,
		middleware.Env{CAKey: ca.PublicKey(), Directory: dir, Log: audit.NewLog()}, ord)
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	// A reader who is a member of both channels opens the groups afterwards.
	readerKey, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, ch := range channels {
		dir.AddMember(ch, "reader", readerKey.Public())
	}
	h := EnrollmentHandler(ca, func(identity string, pub dcrypto.PublicKey) {
		for _, ch := range channels {
			dir.AddMember(ch, identity, pub)
		}
	}, gw)
	srv, err := Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Enroll every submitter before any traffic: a member joining mid-run
	// would rotate the channels' key epochs, which is not under test here.
	clients := make([]*Client, 2)
	submitters := make([]*principal, len(clients))
	for w := range clients {
		c, err := Dial(srv.Addr().String(), WithInFlight(inFlight))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[w], submitters[w] = c, bootstrap(t, c, fmt.Sprintf("submitter-%d", w))
	}

	ctx := context.Background()
	want := make(map[string][][]byte)
	var wg sync.WaitGroup
	for w, c := range clients {
		p := submitters[w]
		var wires [][]byte
		for i := 0; i < perConn; i++ {
			for _, ch := range channels {
				payload := []byte(fmt.Sprintf("%s|conn=%d|seq=%03d|%s", ch, w, i, bytes.Repeat([]byte{'x'}, (7*i+3*w)%41)))
				want[ch] = append(want[ch], payload)
				req := &middleware.Request{Channel: ch, Principal: p.name, Payload: payload, SessionToken: p.grant.Token}
				middleware.MACRequest(req, p.grant.MacKey)
				wire, err := middleware.EncodeWireRequest(req, "")
				if err != nil {
					t.Fatal(err)
				}
				wires = append(wires, wire)
			}
		}
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			// Keep the pipeline full: a slot frees when its reply is
			// collected, so wait on the oldest once inFlight are pending.
			var pending []*PendingSubmit
			collect := func() {
				if _, err := pending[0].Wait(ctx); err != nil {
					t.Errorf("submission refused: %v", err)
				}
				pending = pending[1:]
			}
			for _, wire := range wires {
				if len(pending) == inFlight {
					collect()
				}
				ps, err := c.SubmitRawAsync(ctx, wire)
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				pending = append(pending, ps)
			}
			for len(pending) > 0 {
				collect()
			}
		}(c)
	}
	wg.Wait()
	if err := gw.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, ch := range channels {
		var got [][]byte
		for _, payload := range sealed[ch] {
			genv, err := middleware.ParseGroupEnvelope(payload)
			if err != nil {
				t.Fatalf("%s: parse group envelope: %v", ch, err)
			}
			members, err := middleware.OpenGroupEnvelope(genv, "reader", readerKey)
			if err != nil {
				t.Fatalf("%s: open group envelope: %v", ch, err)
			}
			got = append(got, members...)
		}
		// The two connections race, so a channel's members arrive in no
		// fixed order: compare as multisets.
		sortPayloads(got)
		sortPayloads(want[ch])
		if len(got) != len(want[ch]) {
			t.Fatalf("%s: groups opened to %d members, %d were submitted", ch, len(got), len(want[ch]))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[ch][i]) {
				t.Errorf("%s: sealed member %q, submitted %q", ch, got[i], want[ch][i])
			}
		}
	}
}

func sortPayloads(p [][]byte) {
	sort.Slice(p, func(i, j int) bool { return bytes.Compare(p[i], p[j]) < 0 })
}
