// Command gateway demonstrates the confidentiality middleware pipeline
// end to end: a workload generator drives signed client submissions over
// the transport substrate into a Gateway running the full chain
// (session -> authn -> ratelimit -> encrypt -> audit -> retry -> breaker
// -> batch), which orders them across a sharded ordering tier and commits
// every block to all three platform backends. Channels are partitioned
// over the ordering shards by consistent hashing, with the first channel
// pinned to shard 0 to show the hot-channel pin table. The CA's
// revocation plane is wired through (-revokecheck): revoking a member's
// certificate mid-run evicts its live session and rotates the channel
// data-key epoch so the revoked member cannot open later envelopes.
//
// The demo is its own telemetry consumer: it serves /metrics, /statusz,
// /tracez, and /debug/pprof on the -telemetry listen address, then reads
// the per-stage, per-backend, per-shard, session, and revocation counters
// back through a single /statusz fetch, scrapes its own /metrics for the
// confmw_* families, and summarizes the sampled traces from /tracez
// (-trace N samples one submission in N). It finishes with the leakage
// matrix showing that neither the gateway operator nor any
// envelope-visibility shard operator saw transaction data.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/platform/corda"
	"dltprivacy/internal/platform/fabric"
	"dltprivacy/internal/platform/quorum"
	"dltprivacy/internal/telemetry"
	"dltprivacy/internal/transport"
	"dltprivacy/internal/workload"
)

// opts holds every flag; the demo and -listen serve mode each read the
// ones their help text names.
type opts struct {
	trades, batch, shards, replicas, channels int
	trace, auditAsync, timingSample           int
	acceptLoops, maxPerPrincipal              int
	seed                                      int64
	revokeCheck, reqauth, telemetryAddr       string
	stages, listen                            string
	groupSeal, shed                           bool
	statsEvery                                time.Duration
}

func main() {
	var o opts
	flag.IntVar(&o.trades, "trades", 24, "number of workload trades to submit")
	flag.IntVar(&o.batch, "batch", 4, "batch stage group size")
	flag.BoolVar(&o.groupSeal, "groupseal", false, "seal each (channel, epoch) batch group with one AEAD invocation (amortized group envelope; rides the encrypt key cache)")
	flag.IntVar(&o.auditAsync, "auditasync", 0, "audit ring depth: record leakage-log entries off the submit path, flushed on close (0 = record inline)")
	flag.IntVar(&o.timingSample, "timingsample", 0, "run full per-stage timing for one submission in N, counters stay exact (0 = time every submission)")
	flag.Int64Var(&o.seed, "seed", 42, "workload generator seed")
	flag.IntVar(&o.shards, "shards", 2, "ordering shards behind the gateway")
	flag.IntVar(&o.replicas, "replicas", 0, "ordering operators per shard: 0 runs solo shards, >= 3 runs replicated clusters with automatic leader failover")
	flag.IntVar(&o.channels, "channels", 2, "channels to spread trades across")
	flag.StringVar(&o.revokeCheck, "revokecheck", "resolve", "session revocation check mode: off, resolve, or sweep")
	flag.StringVar(&o.reqauth, "reqauth", "mac", "steady-state session request auth: sig (per-request ECDSA) or mac (per-session HMAC)")
	flag.StringVar(&o.telemetryAddr, "telemetry", "127.0.0.1:0", "telemetry listen address for /metrics, /statusz, /tracez, /debug/pprof (e.g. :9090)")
	flag.IntVar(&o.trace, "trace", 64, "sample one submission in N for request tracing (0 = off)")
	flag.StringVar(&o.stages, "stages", "", `pipeline override as a raw Config string, e.g. "session(reqauth=mac)|authn|encrypt|audit|batch(size=4)"; must include a session stage for the demo workload (empty = the built-in pipeline)`)
	flag.StringVar(&o.listen, "listen", "", "serve the wire protocol on this TCP address (e.g. :9444) instead of running the demo; remote clients enroll, open sessions, and submit over the netedge framing")
	flag.IntVar(&o.acceptLoops, "acceptloops", 4, "edge accept-plane shards (serve mode)")
	flag.IntVar(&o.maxPerPrincipal, "maxperprincipal", 0, "live-session cap per principal in serve mode (0 = unlimited)")
	flag.BoolVar(&o.shed, "shed", false, "shed slow edge consumers instead of blocking on their outbound queue (serve mode)")
	flag.DurationVar(&o.statsEvery, "statsevery", 10*time.Second, "serve-mode interval for the edge stats line")
	flag.Parse()
	if o.listen != "" {
		if err := runServe(o); err != nil {
			fmt.Fprintln(os.Stderr, "gateway:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		if errors.Is(err, middleware.ErrBadConfig) {
			fmt.Fprintf(os.Stderr, "registered stages:\n%s", middleware.StageUsage())
		}
		os.Exit(1)
	}
}

func run(o opts) error {
	if o.shards < 1 || o.channels < 1 {
		return fmt.Errorf("need at least 1 shard and 1 channel, got %d/%d", o.shards, o.channels)
	}
	wl := workload.New(o.seed)
	members := wl.Orgs(3)
	trades, err := wl.Trades(members, o.trades, 96)
	if err != nil {
		return err
	}
	channels := make([]string, o.channels)
	for i := range channels {
		channels[i] = fmt.Sprintf("deals-%d", i)
	}

	// Consortium PKI: every member enrols with the CA.
	ca, err := pki.NewCA("consortium-ca")
	if err != nil {
		return err
	}
	keys := make(map[string]*dcrypto.PrivateKey, len(members))
	certs := make(map[string]pki.Certificate, len(members))
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return err
		}
		cert, err := ca.Enroll(m, key.Public())
		if err != nil {
			return err
		}
		keys[m], certs[m], memberKeys[m] = key, cert, key.Public()
	}

	// Sharded ordering tier: each shard is its own envelope-visibility
	// service — one operator under -replicas 0, a replicated cluster with
	// automatic leader failover under -replicas >= 3 — whose operators are
	// the set the audit log accounts leakage for. Channels spread over shards
	// by consistent hashing; the pin below overrides it for the first channel.
	log := audit.NewLog()
	orderer, shards, err := buildShards(o.shards, o.replicas, log)
	if err != nil {
		return err
	}

	backends, err := standUpPlatforms(members, channels)
	if err != nil {
		return err
	}

	// The declarative pipeline. Swapping confidentiality posture means
	// editing this list, not client code. The session stage serves
	// token-bound traffic from its cached verified principals (capped at 4
	// live sessions per principal); authn remains for certificate-bearing
	// (sessionless) submissions. Rate limiting sits before the envelope
	// stage so over-limit traffic is shed before paying the symmetric
	// seal, and the encrypt key cache amortizes the per-member hybrid wrap
	// across each epoch. Shards/ShardPins declare the ordering topology,
	// checked against the backend at construction.
	sessionParams := map[string]string{
		"ttl": "10m", "idle": "2m", "maxperprincipal": "4",
		"revokecheck": o.revokeCheck,
		"reqauth":     o.reqauth,
	}
	if o.revokeCheck == "sweep" {
		sessionParams["revokesweep"] = "30s"
	}
	auditParams := map[string]string{"observer": "gateway-op"}
	if o.auditAsync > 0 {
		auditParams["auditasync"] = fmt.Sprint(o.auditAsync)
	}
	batchParams := map[string]string{"size": fmt.Sprint(o.batch)}
	if o.groupSeal {
		batchParams["groupseal"] = "on"
	}
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: sessionParams},
			{Name: middleware.StageAuthn},
			{Name: middleware.StageRateLimit, Params: map[string]string{"rate": "5000", "burst": "5000"}},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
			{Name: middleware.StageAudit, Params: auditParams},
			{Name: middleware.StageRetry, Params: map[string]string{"attempts": "3", "backoff": "2ms"}},
			{Name: middleware.StageBreaker, Params: map[string]string{"threshold": "5", "cooldown": "250ms"}},
			{Name: middleware.StageBatch, Params: batchParams},
		},
		Shards:    o.shards,
		ShardPins: map[string]int{channels[0]: 0},
	}
	if o.trace > 0 {
		cfg.Trace = fmt.Sprint(o.trace)
	}
	if o.timingSample > 0 {
		cfg.TimingSample = fmt.Sprint(o.timingSample)
	}
	// -stages overrides the whole pipeline; the demo's request-auth and
	// revocation knobs then follow the override's session stage instead of
	// their own flags. Unknown stage names fail here with the registered
	// list, so new stages are discoverable from the CLI.
	if o.stages != "" {
		parsed, err := middleware.ParseStages(o.stages)
		if err != nil {
			return err
		}
		cfg.Stages = parsed
		o.reqauth, o.revokeCheck = "sig", "off"
		hasSession := false
		for _, sc := range parsed {
			if sc.Name == middleware.StageSession {
				hasSession = true
				if v := sc.Params["reqauth"]; v != "" {
					o.reqauth = v
				}
				if v := sc.Params["revokecheck"]; v != "" {
					o.revokeCheck = v
				}
			}
		}
		if !hasSession {
			return fmt.Errorf("%w: the demo workload drives session-bound submissions; include a session stage in -stages", middleware.ErrBadConfig)
		}
	}
	dir := middleware.StaticDirectory{}
	for _, ch := range channels {
		dir[ch] = memberKeys
	}
	env := middleware.Env{
		CAKey:     ca.PublicKey(),
		Directory: dir,
		Log:       log,
		Revoker:   ca, // the CA pushes revocations straight into the gateway
	}
	gw, err := middleware.NewGateway("gw", cfg, env, orderer)
	if err != nil {
		return err
	}
	for _, ch := range channels {
		gw.Bind(ch, backends...)
	}

	bus := transport.New()
	if err := gw.AttachTransport(context.Background(), bus, "gateway"); err != nil {
		return err
	}

	// The demo below is the telemetry plane's first consumer: stats come
	// back through /statusz, not gw.Stats().
	srv, err := serveTelemetry(o.telemetryAddr, gw)
	if err != nil {
		return err
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	fmt.Printf("telemetry: %s/metrics /statusz /tracez /debug/pprof (trace=%d)\n\n", base, o.trace)

	// Each member opens one session: the full certificate verification is
	// paid here, once, and every subsequent submission rides the token.
	// Under -reqauth mac the grant also carries the per-session HMAC key
	// (the symmetric fast path).
	grants := make(map[string]middleware.SessionGrant, len(members))
	for _, m := range members {
		grant, err := middleware.OpenSessionOver(bus, m, "gateway", certs[m], keys[m])
		if err != nil {
			return fmt.Errorf("open session for %s: %w", m, err)
		}
		grants[m] = grant
	}
	// authenticate binds a request to its session per the configured mode:
	// a ~1µs HMAC under the grant key, or a per-request ECDSA signature.
	authenticate := func(req *middleware.Request) error {
		if o.reqauth == "mac" {
			middleware.MACRequest(req, grants[req.Principal].MacKey)
			return nil
		}
		return middleware.SignRequest(req, keys[req.Principal])
	}

	start := time.Now()
	for i, tr := range trades {
		payload, err := json.Marshal(tr)
		if err != nil {
			return err
		}
		req := &middleware.Request{
			Channel:      channels[i%len(channels)],
			Principal:    tr.Buyer,
			Payload:      payload,
			SessionToken: grants[tr.Buyer].Token,
		}
		if err := authenticate(req); err != nil {
			return err
		}
		if _, err := middleware.SubmitOver(bus, tr.Buyer, "gateway", req); err != nil {
			return fmt.Errorf("submit %s: %w", tr.ID, err)
		}
	}
	if err := gw.Flush(context.Background()); err != nil {
		return err
	}
	elapsed := time.Since(start)

	// The single stats consumer: the snapshot every counter below prints
	// from is fetched over HTTP from /statusz, exactly as an operator's
	// dashboard would read it.
	stats, err := fetchStatusz(base)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %d trades over %d channels in %v (%.0f tx/s)\n\n",
		stats.Submitted, len(channels), elapsed.Round(time.Microsecond),
		float64(stats.Submitted)/elapsed.Seconds())

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "STAGE\tCALLS\tERRORS\tTIME\tEXCL")
	for _, st := range stats.Stages {
		fmt.Fprintf(w, "%s\t%d\t%d\t%v\t%v\n", st.Name, st.Calls, st.Errors,
			time.Duration(st.Nanos).Round(time.Microsecond),
			time.Duration(st.ExclusiveNanos).Round(time.Microsecond))
	}
	fmt.Fprintln(w, "\nBACKEND\tBLOCKS\tTXS\tERRORS")
	for _, bs := range stats.Backends {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", bs.Name, bs.Blocks, bs.Txs, bs.Errors)
	}
	fmt.Fprintln(w, "\nSHARD\tOPERATORS\tROUTED\tDELIVERED\tPINNED\tFAILOVERS\tMIGRATED")
	for _, sh := range stats.Shards {
		fmt.Fprintf(w, "%d\t%v\t%d\t%d\t%d\t%d\t%d\n", sh.Shard, sh.Operators, sh.RoutedTxs, sh.DeliveredBlocks,
			sh.PinnedChannels, sh.Failovers, sh.MigratedIn)
	}
	w.Flush()
	if stats.Sessions != nil {
		fmt.Printf("\nsessions: %d live, %d opened, %d expired, %d evicted, %d revoked; key epochs rotated: %d (%d by revocation); revocation sweeps: %d\n",
			stats.Sessions.Live, stats.Sessions.Opened, stats.Sessions.Expired,
			stats.Sessions.Evicted, stats.Sessions.Revoked,
			stats.KeyEpochsRotated, stats.KeyEpochsRevokedRotations, stats.RevocationSweeps)
	}

	// Self-scrape: the same counters in Prometheus text format, ready for
	// any scraper pointed at the -telemetry address, checked against /statusz.
	if err := printScrape(base, o.trace, stats.Submitted); err != nil {
		return err
	}

	// Fault tolerance, live: kill the leader of the first channel's shard
	// and migrate the channel to another shard, with client traffic riding
	// through both.
	if o.replicas >= 3 {
		if err := demoFailover(gw, orderer, shards, bus, channels, members, grants, authenticate); err != nil {
			return err
		}
	}

	fmt.Println("\nleakage (who saw transaction data?):")
	operators := append([]string{"gateway-op"}, orderer.Operators()...)
	var leaked []string
	for i, op := range append(operators, members[0]) {
		saw := log.SawAny(op, audit.ClassTxData)
		fmt.Printf("  %-14s txdata=%v\n", op, saw)
		if saw && i < len(operators) {
			leaked = append(leaked, op)
		}
	}
	if len(leaked) > 0 {
		return fmt.Errorf("operators %v observed transaction data", leaked)
	}
	// A rejected submission: tampered payload fails the per-request
	// authentication check — MAC or signature — even on a live session.
	bad := &middleware.Request{
		Channel:      channels[0],
		Principal:    members[0],
		Payload:      []byte("legit"),
		SessionToken: grants[members[0]].Token,
	}
	if err := authenticate(bad); err != nil {
		return err
	}
	bad.Payload = []byte("tampered")
	if _, err := middleware.SubmitOver(bus, members[0], "gateway", bad); !errors.Is(err, middleware.ErrBadSignature) && !errors.Is(err, middleware.ErrBadMAC) {
		return fmt.Errorf("tampered submission was not rejected: %v", err)
	}
	fmt.Printf("\ntampered submission rejected on the session path (reqauth=%s), as configured\n", o.reqauth)

	// A forged token never reaches the chain's downstream stages.
	forged := &middleware.Request{
		Channel:      channels[0],
		Principal:    members[0],
		Payload:      []byte("legit"),
		SessionToken: "not-a-token",
	}
	if err := middleware.SignRequest(forged, keys[members[0]]); err != nil {
		return err
	}
	if _, err := middleware.SubmitOver(bus, members[0], "gateway", forged); !errors.Is(err, middleware.ErrNoSession) {
		return fmt.Errorf("forged session token was not rejected: %v", err)
	}
	fmt.Println("forged session token rejected with ErrNoSession")

	// Mid-run revocation: the CA withdraws the last member's certificate.
	// The push subscription evicts its live session, and the encrypt stage
	// drops it from every channel's next key epoch.
	if o.revokeCheck != "off" {
		revoked := members[len(members)-1]
		pre, err := fetchStatusz(base)
		if err != nil {
			return err
		}
		ca.Revoke(certs[revoked].Serial)
		late := &middleware.Request{
			Channel:      channels[0],
			Principal:    revoked,
			Payload:      []byte("post-revocation"),
			SessionToken: grants[revoked].Token,
		}
		// Even a valid MAC under the granted session key is refused: the
		// key died with the session when the certificate was revoked.
		if err := authenticate(late); err != nil {
			return err
		}
		if _, err := middleware.SubmitOver(bus, revoked, "gateway", late); !errors.Is(err, middleware.ErrSessionRevoked) {
			return fmt.Errorf("revoked member's submission was not rejected: %v", err)
		}
		fmt.Printf("revoked %s mid-run: session evicted, next submission rejected with ErrSessionRevoked\n", revoked)
		// A surviving member's next submission re-keys the channel: the
		// fresh epoch is not wrapped to the revoked member.
		fresh := &middleware.Request{
			Channel:      channels[0],
			Principal:    members[0],
			Payload:      []byte("post-revocation re-key"),
			SessionToken: grants[members[0]].Token,
		}
		if err := authenticate(fresh); err != nil {
			return err
		}
		if _, err := middleware.SubmitOver(bus, members[0], "gateway", fresh); err != nil {
			return fmt.Errorf("surviving member submit after revocation: %v", err)
		}
		if err := gw.Flush(context.Background()); err != nil {
			return err
		}
		post, err := fetchStatusz(base)
		if err != nil {
			return err
		}
		fmt.Printf("revocation invalidated %d cached channel keys; %d fresh epoch installed on the resubmitted channel; %d sessions revoked, %d sweeps\n",
			post.KeyEpochsRevokedRotations, post.KeyEpochsRotated-pre.KeyEpochsRotated,
			post.SessionsRevoked, post.RevocationSweeps)
	}

	// Sessions closed; their tokens die with them (closing the revoked
	// member's already-evicted token is an idempotent no-op).
	for _, m := range members {
		if err := middleware.CloseSessionOver(bus, m, "gateway", grants[m].Token); err != nil {
			return err
		}
	}
	fmt.Printf("closed %d sessions (%d live)\n", len(members), gw.Sessions().Len())
	return nil
}

// demoFailover exercises the replicated shard fabric with live client
// traffic: it kills the leader of the first channel's shard (the next
// submission rides the automatic election), then migrates the channel to
// another shard over the shard.rebalance admin topic and submits again.
func demoFailover(gw *middleware.Gateway, orderer *ordering.ShardedBackend, shards []*ordering.ReplicatedShard,
	bus *transport.Network, channels, members []string, grants map[string]middleware.SessionGrant,
	authenticate func(*middleware.Request) error) error {
	ch := channels[0]
	shardIdx := orderer.ShardFor(ch)
	rs := shards[shardIdx]
	submit := func(payload string) error {
		req := &middleware.Request{
			Channel:      ch,
			Principal:    members[0],
			Payload:      []byte(payload),
			SessionToken: grants[members[0]].Token,
		}
		if err := authenticate(req); err != nil {
			return err
		}
		if _, err := middleware.SubmitOver(bus, members[0], "gateway", req); err != nil {
			return err
		}
		return gw.Flush(context.Background())
	}
	dead, err := rs.CrashLeader(ch)
	if err != nil {
		return err
	}
	if err := submit("submitted into the failover window"); err != nil {
		return fmt.Errorf("submit across leader kill: %w", err)
	}
	fmt.Printf("\nkilled shard %d leader %s mid-run: the next submission rode the automatic election (shard failovers: %d)\n",
		shardIdx, dead, rs.Failovers())
	if len(shards) < 2 {
		return nil
	}
	target := (shardIdx + 1) % len(shards)
	notice, err := middleware.RebalanceOver(bus, "admin", "gateway",
		middleware.RebalanceRequest{Channel: ch, To: target})
	if err != nil {
		return fmt.Errorf("migrate %s to shard %d: %w", ch, target, err)
	}
	if err := submit("submitted after migration"); err != nil {
		return fmt.Errorf("submit after migration: %w", err)
	}
	fmt.Printf("migrated %s to shard %d over %s (%d move); the chain continued there without a gap\n",
		ch, orderer.ShardFor(ch), middleware.TopicShardRebalance, len(notice.Migrations))
	return nil
}

// serveTelemetry starts the telemetry listener both modes share: one
// registry over every layer of the gateway (plus whatever else the mode
// registers — the serve-mode edge), served beside the stats snapshot, the
// trace ring, and pprof. The caller closes the returned server, whose Addr
// is the address actually bound (the resolved port for ":0").
func serveTelemetry(addr string, gw *middleware.Gateway, more ...func(*telemetry.Registry) error) (*http.Server, error) {
	reg := telemetry.NewRegistry()
	if err := gw.RegisterMetrics(reg); err != nil {
		return nil, err
	}
	for _, register := range more {
		if err := register(reg); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Addr:    ln.Addr().String(),
		Handler: telemetry.NewMux(reg, gw.Tracer(), func() any { return gw.Stats() }),
	}
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}

// fetchStatusz reads the gateway stats snapshot back through the telemetry
// listener — the demo consumes its own observability surface instead of
// reaching into the Gateway.
func fetchStatusz(base string) (middleware.GatewayStats, error) {
	var stats middleware.GatewayStats
	resp, err := http.Get(base + "/statusz")
	if err != nil {
		return stats, fmt.Errorf("statusz: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return stats, fmt.Errorf("statusz: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return stats, fmt.Errorf("statusz decode: %w", err)
	}
	return stats, nil
}

// submittedFamily is the /metrics counter the demo checks against /statusz.
const submittedFamily = "confmw_gateway_submitted_total"

// printScrape GETs /metrics and /tracez, prints a sample of the confmw_*
// series (one per family), and summarizes the trace ring. Both views come
// from one counter table: a scrape without the submission counter, or with
// less than /statusz gave earlier (later submissions only add), is an error.
func printScrape(base string, trace int, submitted uint64) error {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	families := 0
	var sample []string
	var histSample, submittedLine string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lastFamily := ""
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "confmw_") {
			continue
		}
		if histSample == "" && strings.HasPrefix(line, "confmw_stage_latency_seconds_bucket{") {
			histSample = line
		}
		family := line[:strings.IndexAny(line+"{ ", "{ ")]
		if family == submittedFamily {
			submittedLine = line
		}
		if family != lastFamily {
			families++
			lastFamily = family
			if len(sample) < 6 {
				sample = append(sample, line)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("metrics scrape: %w", err)
	}
	fmt.Printf("\nscraped /metrics: %d confmw_* series families, e.g.\n", families)
	for _, line := range sample {
		fmt.Printf("  %s\n", line)
	}
	if histSample != "" {
		fmt.Printf("  %s\n", histSample)
	}
	var scraped uint64
	if _, err := fmt.Sscanf(submittedLine, submittedFamily+" %d", &scraped); err != nil {
		return fmt.Errorf("metrics scrape: no %s sample (found %q): %w", submittedFamily, submittedLine, err)
	}
	fmt.Printf("  %s\n", submittedLine)
	if scraped < submitted {
		return fmt.Errorf("metrics scrape: %s reads %d, /statusz said %d submitted", submittedFamily, scraped, submitted)
	}
	if trace > 0 {
		tresp, err := http.Get(base + "/tracez")
		if err != nil {
			return fmt.Errorf("tracez: %w", err)
		}
		defer tresp.Body.Close()
		var ring struct {
			SampleEvery int    `json:"sampleEvery"`
			Sampled     uint64 `json:"sampled"`
			Traces      []struct {
				ID    string `json:"id"`
				Spans []struct {
					Stage string `json:"stage"`
				} `json:"spans"`
			} `json:"traces"`
		}
		if err := json.NewDecoder(tresp.Body).Decode(&ring); err != nil {
			return fmt.Errorf("tracez decode: %w", err)
		}
		fmt.Printf("tracez: %d traces sampled (1 in %d) in the ring\n", ring.Sampled, ring.SampleEvery)
		if len(ring.Traces) > 0 {
			stages := make([]string, len(ring.Traces[0].Spans))
			for i, s := range ring.Traces[0].Spans {
				stages[i] = s.Stage
			}
			fmt.Printf("  trace %s spans: %s\n", ring.Traces[0].ID, strings.Join(stages, " "))
		}
	}
	return nil
}

// buildShards constructs the ordering tier: nShards envelope-visibility
// shards behind one sharded backend, each run by one operator when replicas
// is 0 or replicated over 3+ with automatic leader failover. Shard i's
// operators are "orderer-op-<i>" (one) or "orderer-op-<i>-<r>" (replicated).
func buildShards(nShards, replicas int, log *audit.Log) (*ordering.ShardedBackend, []*ordering.ReplicatedShard, error) {
	if replicas != 0 && replicas < 3 {
		return nil, nil, fmt.Errorf("-replicas must be 0 (one operator per shard) or >= 3 (a replicated cluster needs a majority quorum), got %d", replicas)
	}
	shards := make([]*ordering.ReplicatedShard, nShards)
	backends := make([]ordering.Backend, nShards)
	for i := range shards {
		ops := []string{fmt.Sprintf("orderer-op-%d", i)}
		if replicas > 0 {
			ops = make([]string, replicas)
			for r := range ops {
				ops[r] = fmt.Sprintf("orderer-op-%d-%d", i, r)
			}
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
		if err != nil {
			return nil, nil, err
		}
		shards[i], backends[i] = rs, rs
	}
	orderer, err := ordering.NewSharded(backends)
	return orderer, shards, err
}

// standUpPlatforms boots the three platform models — with a Fabric channel
// and chaincode per gateway channel — and returns the gateway adapters
// committing into them.
func standUpPlatforms(members, channels []string) ([]middleware.Backend, error) {
	fnet, err := fabric.NewNetwork(fabric.Config{})
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if _, err := fnet.AddOrg(m); err != nil {
			return nil, err
		}
	}
	policy := contract.Policy{Members: members, Threshold: 2}
	kv := contract.Contract{
		Name:    "kv",
		Version: "1",
		Funcs: map[string]contract.Func{
			"put": func(ctx *contract.Context, args [][]byte) ([]byte, error) {
				if len(args) != 2 {
					return nil, errors.New("put: want key, value")
				}
				ctx.Put(string(args[0]), args[1])
				return []byte("ok"), nil
			},
		},
	}
	for _, ch := range channels {
		if err := fnet.CreateChannel(ch, members, policy); err != nil {
			return nil, err
		}
		if err := fnet.InstallChaincode(ch, kv, members); err != nil {
			return nil, err
		}
	}
	fb, err := middleware.NewFabricBackend(fnet, members[0], "kv", "put", members[:2])
	if err != nil {
		return nil, err
	}

	cnet, err := corda.NewNetwork(corda.Config{})
	if err != nil {
		return nil, err
	}
	for _, m := range members {
		if _, err := cnet.AddParty(m); err != nil {
			return nil, err
		}
	}
	cb, err := middleware.NewCordaBackend(cnet, members[0], members[0], members)
	if err != nil {
		return nil, err
	}

	qnet := quorum.NewNetwork()
	for _, m := range members {
		if _, err := qnet.AddNode(m); err != nil {
			return nil, err
		}
	}
	qb, err := middleware.NewQuorumBackend(qnet, members[0], members[1:])
	if err != nil {
		return nil, err
	}
	return []middleware.Backend{fb, cb, qb}, nil
}
