package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"dltprivacy/internal/netedge"
)

// startServing starts the gateway on loopback ports and runs it until the
// test ends.
func startServing(t *testing.T) *server {
	t.Helper()
	s, err := start(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.run(ctx, io.Discard) }()
	t.Cleanup(func() {
		stop()
		if err := <-done; err != nil {
			t.Errorf("stop: %v", err)
		}
	})
	return s
}

// adminPost sends body to the operator listener's path with method and
// returns the status and the reply.
func adminPost(t *testing.T, s *server, method, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+s.telemetry.Addr+"/admin/rebalance", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(reply)
}

// migrationsTotal sums confmw_shard_migrations_total over the shards, as
// /metrics serves it.
func migrationsTotal(t *testing.T, s *server) int {
	t.Helper()
	resp, err := http.Get("http://" + s.telemetry.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "confmw_shard_migrations_total{") {
			var n int
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &n); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			total += n
		}
	}
	return total
}

// TestAdminRebalance drives POST /admin/rebalance on the operator listener:
// a manual move migrates a live channel and is counted, repeating it
// reports nothing, a skew pass answers, and any other method, a malformed
// body and a move the backend refuses are refused without moving anything.
func TestAdminRebalance(t *testing.T) {
	s := startServing(t)
	const channel = "deals-0"
	submitOne(t, s, channel)
	from := s.orderer.ShardFor(channel)
	to := 1 - from

	move := fmt.Sprintf(`{"channel":%q,"to":%d}`, channel, to)
	code, reply := adminPost(t, s, http.MethodPost, move)
	var notice rebalanceNotice
	if code != http.StatusOK || json.Unmarshal([]byte(reply), &notice) != nil {
		t.Fatalf("manual move: %d %q", code, reply)
	}
	if len(notice.Migrations) != 1 || notice.Migrations[0].Channel != channel ||
		notice.Migrations[0].From != from || notice.Migrations[0].To != to {
		t.Fatalf("manual move reported %+v, want %s from %d to %d", notice.Migrations, channel, from, to)
	}
	if got := s.orderer.ShardFor(channel); got != to {
		t.Fatalf("ShardFor after the move = %d, want %d", got, to)
	}
	if n := migrationsTotal(t, s); n != 1 {
		t.Fatalf("confmw_shard_migrations_total sums to %d, want 1", n)
	}
	// Repeating the move is a no-op, reported as such.
	if code, reply := adminPost(t, s, http.MethodPost, move); code != http.StatusOK || !strings.Contains(reply, `"migrations":[]`) {
		t.Fatalf("repeated move: %d %q, want no migrations", code, reply)
	}
	// A skew pass over one channel with traffic has nothing to move, and
	// says so; an empty body runs one at the default skew.
	for _, body := range []string{`{"skew":1.2}`, ""} {
		if code, reply := adminPost(t, s, http.MethodPost, body); code != http.StatusOK || !strings.Contains(reply, `"migrations":[]`) {
			t.Fatalf("skew pass %q: %d %q, want no migrations", body, code, reply)
		}
	}

	for _, tc := range []struct {
		method, body string
		want         int
	}{
		{http.MethodGet, "", http.StatusMethodNotAllowed},
		{http.MethodPut, move, http.StatusMethodNotAllowed},
		{http.MethodPost, "{", http.StatusBadRequest},
		{http.MethodPost, `{"chanel":"deals-0","to":0}`, http.StatusBadRequest},
		{http.MethodPost, `{"channel":"deals-0","to":0} {}`, http.StatusBadRequest},
		{http.MethodPost, `{"channel":"` + strings.Repeat("x", maxRebalanceBody) + `"}`, http.StatusBadRequest},
		{http.MethodPost, `{"channel":"deals-0","to":7}`, http.StatusUnprocessableEntity},
		{http.MethodPost, `{"skew":0.5}`, http.StatusUnprocessableEntity},
	} {
		if code, reply := adminPost(t, s, tc.method, tc.body); code != tc.want {
			t.Errorf("%s %.40q: %d %q, want %d", tc.method, tc.body, code, reply, tc.want)
		}
	}
	if got := s.orderer.ShardFor(channel); got != to {
		t.Fatalf("ShardFor after the refused requests = %d, want %d", got, to)
	}
	if n := migrationsTotal(t, s); n != 1 {
		t.Fatalf("confmw_shard_migrations_total sums to %d after the refused requests, want 1", n)
	}
}

// TestStrangerReachesNoOperatorAction probes serve mode as a stranger: a
// client with no session and no certificate sends the two operator topics
// the edge once served, and each is refused as an unknown topic, labelled
// with the wire/unknown_topic series that counts it, with the channel's
// shard and the gateway's revocation syncs as they were.
func TestStrangerReachesNoOperatorAction(t *testing.T) {
	s := startServing(t)
	const channel = "deals-0"
	submitOne(t, s, channel)
	shard, sweeps := s.orderer.ShardFor(channel), s.gw.Stats().RevocationSweeps

	c, err := netedge.Dial(s.edge.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	move := fmt.Sprintf(`{"channel":%q,"to":%d}`, channel, 1-shard)
	for _, probe := range []struct{ topic, body string }{
		{"shard.rebalance", move},
		{"shard.rebalance", ""},
		{"revocation.notify", ""},
	} {
		_, err := c.Call(context.Background(), probe.topic, []byte(probe.body))
		var we *netedge.WireError
		if !errors.As(err, &we) || we.Label != "wire/unknown_topic" || !strings.Contains(we.Msg, "unknown topic") {
			t.Errorf("%s %q from a stranger: %v, want the unknown-topic refusal", probe.topic, probe.body, err)
		}
	}
	if got := s.orderer.ShardFor(channel); got != shard {
		t.Fatalf("a stranger moved %s from shard %d to %d", channel, shard, got)
	}
	if got := s.gw.Stats().RevocationSweeps; got != sweeps {
		t.Fatalf("a stranger ran %d revocation syncs", got-sweeps)
	}
}
