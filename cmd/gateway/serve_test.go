package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
)

// TestDefaultStagesAreTheServePipeline: the -stages default is the pipeline
// serve mode used to build by hand. Its session stage no longer names
// reqauth: MAC is the one request authentication, and the default.
func TestDefaultStagesAreTheServePipeline(t *testing.T) {
	got, err := middleware.ParseStages(defaultStages)
	if err != nil {
		t.Fatal(err)
	}
	want := []middleware.StageConfig{
		{Name: middleware.StageSession, Params: map[string]string{"ttl": "10m", "idle": "5m"}},
		{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
		{Name: middleware.StageAudit, Params: map[string]string{"observer": gatewayOperator}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseStages(%q) = %+v, want %+v", defaultStages, got, want)
	}
}

func testOpts() opts {
	return opts{
		listen:        "127.0.0.1:0",
		stages:        defaultStages,
		telemetryAddr: "127.0.0.1:0",
		shards:        2,
		channels:      2,
		trace:         64,
		acceptLoops:   1,
		statsEvery:    time.Hour,
	}
}

// TestServeOneSession runs the gateway on a loopback port: one principal
// enrolls, opens a session through netedge.Client and submits one MAC'd
// request, /statusz shows the pipeline string beside the counters, and
// stopping the gateway passes the leakage check.
func TestServeOneSession(t *testing.T) {
	s, err := start(testOpts())
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	done := make(chan error, 1)
	go func() { done <- s.run(ctx, io.Discard) }()

	submitOne(t, s, "deals-1")

	resp, err := http.Get("http://" + s.telemetry.Addr + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/statusz: %v", err)
	}
	if st.Pipeline != defaultStages || st.Submitted != 1 || len(st.Stages) != 3 {
		t.Fatalf("/statusz: pipeline %q, %d submitted, %d stages; want %q, 1, 3", st.Pipeline, st.Submitted, len(st.Stages), defaultStages)
	}
	// The leakage matrix: the gateway operator saw the submission's
	// metadata and its submitter, the one orderer operator whose shard
	// ordered it the metadata, and nobody the transaction data.
	if got := st.Leakage[gatewayOperator]; !slices.Equal(got, []audit.DataClass{audit.ClassIdentity, audit.ClassTxMetadata}) {
		t.Fatalf("/statusz: %s observed %v, want identity and txmeta", gatewayOperator, got)
	}
	saw := 0
	for _, op := range s.orderer.Operators() {
		switch got := st.Leakage[op]; {
		case slices.Equal(got, []audit.DataClass{audit.ClassTxMetadata}):
			saw++
		case got == nil || len(got) != 0:
			t.Fatalf("/statusz: %s observed %v, want txmeta or nothing", op, got)
		}
	}
	if saw != 1 || len(st.Leakage) != 1+len(s.orderer.Operators()) {
		t.Fatalf("/statusz leakage matrix %v: want every operator, one orderer having seen txmeta", st.Leakage)
	}
	resp, err = http.Get("http://" + s.telemetry.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`confmw_leakage_observed{observer="gateway-op",class="txmeta"} 1`,
		`confmw_leakage_observed{observer="gateway-op",class="txdata"} 0`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
	if n := strings.Count(string(metrics), "\nconfmw_leakage_observed{"); n != len(st.Leakage)*len(audit.Classes()) {
		t.Errorf("/metrics has %d confmw_leakage_observed series, want one per operator and class", n)
	}

	stop()
	if err := <-done; err != nil {
		t.Fatalf("stop: %v", err)
	}
	if n := s.ordered.Load(); n != 1 {
		t.Fatalf("ordered %d transactions, want 1", n)
	}
}

// submitOne enrolls org-0 over a fresh connection, opens its session and
// submits one MAC'd request on channel.
func submitOne(t *testing.T, s *server, channel string) {
	t.Helper()
	ctx := context.Background()
	c, err := netedge.Dial(s.edge.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	cert, err := c.Enroll(ctx, "org-0", key.Public())
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.OpenSession(ctx, "org-0", cert, key, "")
	if err != nil {
		t.Fatal(err)
	}
	req := &middleware.Request{Channel: channel, Principal: "org-0", Payload: []byte("trade"), SessionToken: grant.Token}
	middleware.MACRequest(req, grant.MacKey)
	if _, err := c.Submit(ctx, req); err != nil {
		t.Fatalf("submit: %v", err)
	}
}

// TestBadStagesFailBeforeListening: a pipeline the parser or the registry
// refuses is ErrBadConfig, reported before the edge binds — the -listen
// address is held by the test, so binding first would fail differently.
func TestBadStagesFailBeforeListening(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, stages := range []string{
		"session|nosuchstage",
		"session(ttl=soon)|authn",
		"session(reqauth=sig)|authn",
		"authn|session",
		"authn",
	} {
		o := testOpts()
		o.listen, o.stages = held.Addr().String(), stages
		if s, err := start(o); !errors.Is(err, middleware.ErrBadConfig) {
			if s != nil {
				s.shutdown(io.Discard)
			}
			t.Errorf("-stages %q: %v, want ErrBadConfig", stages, err)
		}
	}
}
