package experiments

import (
	"fmt"
	"strings"
	"testing"

	"dltprivacy/internal/ordering"
)

// sumDelivered totals the per-channel delivery counters.
func sumDelivered(r *ChaosReport) int {
	total := 0
	for _, n := range r.Delivered {
		total += n
	}
	return total
}

// TestChaosLeaderKillsAndRebalanceUnderLoad is the soak scenario: leaders
// die every few dozen submissions and skew-driven rebalancing migrates
// channels mid-storm, yet every submission succeeds and every channel's
// block stream stays gap-free and duplicate-free.
func TestChaosLeaderKillsAndRebalanceUnderLoad(t *testing.T) {
	report, err := RunChaos(ChaosConfig{
		Shards:          4,
		Replicas:        3,
		Channels:        8,
		Submitters:      8,
		Submissions:     30,
		KillLeaderEvery: 25,
		RebalanceEvery:  80,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(report.Violations) != 0 {
		t.Fatalf("ordering violations under leader chaos:\n%s", strings.Join(report.Violations, "\n"))
	}
	// Leader kills are invisible to clients: the shard fails over inside
	// the submission.
	if report.Succeeded != report.Submitted {
		t.Fatalf("%d of %d submissions failed under leader chaos: %v",
			report.Submitted-report.Succeeded, report.Submitted, report.Failed)
	}
	if report.Failovers == 0 {
		t.Fatal("no failovers ran; the chaos never hit a live leader")
	}
	// Every accepted submission (plus one recovery probe per channel) was
	// delivered exactly once.
	if want := report.Succeeded + 8; sumDelivered(report) != want {
		t.Fatalf("delivered %d txs, want %d", sumDelivered(report), want)
	}
}

// TestChaosShardKillConfinesFailures kills a whole shard mid-storm: the
// only submissions that may fail are those routed to the dead shard's
// channels, every other shard keeps serving, and after revival every
// channel accepts traffic again with its ordering intact.
func TestChaosShardKillConfinesFailures(t *testing.T) {
	const (
		shards   = 4
		channels = 8
	)
	report, err := RunChaos(ChaosConfig{
		Shards:      shards,
		Replicas:    3,
		Channels:    channels,
		Submitters:  6,
		Submissions: 40,
		KillShard:   true,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(report.Violations) != 0 {
		t.Fatalf("ordering violations across the shard kill:\n%s", strings.Join(report.Violations, "\n"))
	}
	// Routing is deterministic for a topology shape, so a throwaway
	// backend of the same shape maps channels to shards exactly as the
	// harness's did; the harness kills the first channel's shard.
	ref := make([]ordering.Backend, shards)
	for i := range ref {
		ref[i] = ordering.New(fmt.Sprintf("ref-%d", i), ordering.VisibilityEnvelope)
	}
	sb, err := ordering.NewSharded(ref)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	killed := sb.ShardFor("chaos-00")
	killedChannels := map[string]bool{}
	for i := 0; i < channels; i++ {
		ch := fmt.Sprintf("chaos-%02d", i)
		if sb.ShardFor(ch) == killed {
			killedChannels[ch] = true
		}
	}
	for _, ch := range report.FailedOnChannels() {
		if !killedChannels[ch] {
			t.Fatalf("channel %s failed but lives outside killed shard %d (failures: %v)",
				ch, killed, report.Failed)
		}
	}
	if report.Succeeded == report.Submitted {
		t.Fatal("no submission failed; the shard kill never bit")
	}
	// Everything accepted was delivered exactly once, nothing more.
	if want := report.Succeeded + channels; sumDelivered(report) != want {
		t.Fatalf("delivered %d txs, want %d", sumDelivered(report), want)
	}
}

// TestChaosRevokeMidStorm revokes a member's certificate mid-storm: every
// one of its later submissions is rejected, everyone else is untouched,
// and ordering never wavers.
func TestChaosRevokeMidStorm(t *testing.T) {
	report, err := RunChaos(ChaosConfig{
		Shards:         2,
		Replicas:       3,
		Channels:       4,
		Submitters:     6,
		Submissions:    30,
		RevokeMidStorm: true,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(report.Violations) != 0 {
		t.Fatalf("ordering violations under revocation chaos:\n%s", strings.Join(report.Violations, "\n"))
	}
	if report.RevokedRejected == 0 {
		t.Fatal("revoked member was never rejected")
	}
	// The revoked member's rejections are the only failures.
	if got := report.Submitted - report.Succeeded; got != report.RevokedRejected {
		t.Fatalf("%d failures total but %d revocation rejections: %v",
			got, report.RevokedRejected, report.Failed)
	}
	for key := range report.Failed {
		if !strings.HasPrefix(key, "session-revoked") {
			t.Fatalf("unexpected failure class %q: %v", key, report.Failed)
		}
	}
	if want := report.Succeeded + 4; sumDelivered(report) != want {
		t.Fatalf("delivered %d txs, want %d", sumDelivered(report), want)
	}
}

// TestChaosRevokeWhileResuming is the revocation storm with every submitter
// opening a session per submission over the wire handshake, so the member
// being revoked holds master secrets and is resuming when the revocation
// lands. Holding a secret must buy it nothing: every open it starts
// afterwards is refused — the resumed ones and the full ones its clients fall
// back to — while everybody else keeps resuming.
func TestChaosRevokeWhileResuming(t *testing.T) {
	report, err := RunChaos(ChaosConfig{
		Shards:         2,
		Replicas:       3,
		Channels:       4,
		Submitters:     6,
		Submissions:    30,
		RevokeMidStorm: true,
		ResumeSessions: true,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(report.Violations) != 0 {
		t.Fatalf("violations under revocation while resuming:\n%s", strings.Join(report.Violations, "\n"))
	}
	if report.RevokedOpensRefused == 0 {
		t.Fatal("the revoked member never tried to open a session after its revocation")
	}
	// Six submitters, thirty opens each, one full handshake per submitter
	// (two for a client that met the swept table and fell back).
	if report.ResumedOpens < report.Succeeded-2*6 {
		t.Fatalf("%d of %d accepted submissions rode a resumed session; the storm was not resuming", report.ResumedOpens, report.Succeeded)
	}
	if got := report.Submitted - report.Succeeded; got != report.RevokedRejected || got < report.RevokedOpensRefused {
		t.Fatalf("%d failures, %d revocation rejections, %d refused opens: %v",
			got, report.RevokedRejected, report.RevokedOpensRefused, report.Failed)
	}
	for key := range report.Failed {
		if !strings.HasPrefix(key, "session-revoked") {
			t.Fatalf("unexpected failure class %q: %v", key, report.Failed)
		}
	}
	if want := report.Succeeded + 4; sumDelivered(report) != want {
		t.Fatalf("delivered %d txs, want %d", sumDelivered(report), want)
	}
}

// TestChaosStaleFollowerKeepsOneChain lags a follower behind live traffic,
// brings it back while its cluster has no leader, and then makes it stand
// against a node that committed blocks it never saw. The other scenarios
// restart a node the instant they kill it, so none of them ever has a
// lagging one; this one forked the chain while replicas kept logs.
func TestChaosStaleFollowerKeepsOneChain(t *testing.T) {
	const channels = 4
	report, err := RunChaos(ChaosConfig{
		Shards:        2,
		Replicas:      3,
		Channels:      channels,
		Submitters:    6,
		Submissions:   40,
		StaleFollower: true,
	})
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	if len(report.Violations) != 0 {
		t.Fatalf("ordering violations with a stale follower:\n%s", strings.Join(report.Violations, "\n"))
	}
	// Two nodes came back behind a leader and were brought level: the
	// follower at the election after its restart, the first leader at the
	// one after its own. Fewer means a stage never ran.
	if report.PositionInstalls < 2 || report.Failovers < 2 {
		t.Fatalf("%d position installs over %d failovers, want at least 2 of each",
			report.PositionInstalls, report.Failovers)
	}
	// The only client-visible cost is on the staged channel, in the instants
	// a single node was up.
	for _, ch := range report.FailedOnChannels() {
		if ch != "chaos-00" {
			t.Fatalf("channel %s failed but only chaos-00 lost nodes (failures: %v)", ch, report.Failed)
		}
	}
	if want := report.Succeeded + channels; sumDelivered(report) != want {
		t.Fatalf("delivered %d txs, want %d", sumDelivered(report), want)
	}
}
