package main

import (
	"context"
	"math"
	"path/filepath"
	"testing"
)

// smoke runs one repetition of a workload at a twentieth of its size
// through the real assembly — CA, shards, gateway, TCP edge, enrolment,
// sessions, load, output checks — and fails on any check that missed.
func smoke(t *testing.T, name string, cfg repConfig, adjust ...func(*workloadSpec)) repResult {
	t.Helper()
	spec, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec = spec.scaled(1.0 / 20)
	for _, f := range adjust {
		f(&cfg.Spec)
	}
	if cfg.Probe {
		cfg.Spec.Ops = cfg.Spec.ProbeOps
	}
	cfg.Seed = 11
	res := runRepetition(context.Background(), cfg)
	for _, p := range res.Problems {
		t.Errorf("%s: %s", name, p)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: %d failed of %d attempted", name, res.Failed, res.Attempted)
	}
	for _, m := range endToEnd {
		if v := res.EndToEnd[m.Name]; !(v > 0) || math.IsInf(v, 0) {
			t.Errorf("%s: end-to-end metric %s = %v, want a positive number", name, m.Name, v)
		}
	}
	if v := res.Layers["ordering.chain_violations"]; v != 0 {
		t.Errorf("%s: %v chain violations", name, v)
	}
	return res
}

func TestSmokeSteadyMACTraced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	res := smoke(t, "steady_mac", repConfig{Traced: true, TracePath: path})
	l := res.Layers
	sum := l["netedge.roundtrip_self_us"] + l["middleware.chain_self_us"] + l["ordering.submit_us"]
	if mean := l["client.traced_mean_us"]; mean <= 0 || math.Abs(sum-mean) > 0.1*mean {
		t.Errorf("layer self times add up to %.1f us, traced client mean is %.1f us: not within 10%%", sum, mean)
	}
	for _, name := range []string{"middleware.stage.session_us", "middleware.stage.encrypt_us", "middleware.stage.audit_us", "ordering.shard_self_us"} {
		if l[name] <= 0 {
			t.Errorf("%s = %v, want a positive time", name, l[name])
		}
	}
	if share := l["ordering.hot_shard_share"]; share < 0.4 || share > 0.6 {
		t.Errorf("hot shard share %v: the chosen channels %v do not spread over the shards", share, res.Channels)
	}
}

func TestSmokeSessionChurn(t *testing.T) {
	// Few enough principals that, even at a twentieth of the visits, each
	// abandons more sessions than the cap lets it keep.
	res := smoke(t, "session_churn", repConfig{}, func(s *workloadSpec) { s.Principals = 8 })
	if res.Layers["middleware.session.evicted"] <= 0 {
		t.Error("no session was evicted by the per-principal cap: abandoned visits are not being reaped")
	}
}

func TestSmokeBatchGroupSeal(t *testing.T) {
	if raceDetector {
		// The known defect (README): a buffered group member's payload
		// aliases its connection's read buffer, which the edge keeps
		// writing. That is a data race in the program under test, and the
		// detector says so. Drop this skip in the change that fixes it.
		t.Skip("batch(groupseal=on) over the TCP edge races on the read buffer: known defect")
	}
	res := smoke(t, "batch_groupseal", repConfig{})
	if got := res.Layers["middleware.batch.txs_per_group"]; got < 32 {
		t.Errorf("%.1f submissions per released group, want close to the batch size 64", got)
	}
}

func TestSmokeReplicatedFailover(t *testing.T) {
	res := smoke(t, "replicated_failover", repConfig{})
	if res.Layers["ordering.failovers"] <= 0 {
		t.Error("no failover ran: leader crashes are not reaching the clusters")
	}
	if res.Layers["ordering.failover_gap_us"] <= 0 {
		t.Error("no failover gap was measured")
	}
}

func TestSmokeOpenLoopProbe(t *testing.T) {
	res := smoke(t, "replicated_failover", repConfig{Probe: true})
	if _, ok := res.Layers["client.late_share"]; !ok {
		t.Error("the open-loop probe reported no client.late_share")
	}
	if res.Layers["ordering.failovers"] <= 0 {
		t.Error("no failover ran during the probe")
	}
}
