package middleware

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
)

// TestLeakageMatrixIsExactWithoutFlush drives the batch_groupseal posture,
// authn|encrypt|audit|batch(size=64,groupseal=on), from 8 goroutines and
// requires the leakage matrix to be exact once every Submit has returned,
// with no Flush: the audit stage records before Handle returns whatever
// auditasync says, and submissions a stage refuses are not recorded.
func TestLeakageMatrixIsExactWithoutFlush(t *testing.T) {
	const (
		n       = 1000
		workers = 8
	)
	ca, ps := enroll(t, "alice", "bob")
	dir := StaticDirectory{"deals": {"alice": ps["alice"].key.Public(), "bob": ps["bob"].key.Public()}}
	for _, depth := range []string{"0", "1", "4096"} {
		t.Run("auditasync="+depth, func(t *testing.T) {
			cfg := Config{Stages: []StageConfig{
				{Name: StageAuthn},
				{Name: StageEncrypt, Params: map[string]string{"keyttl": "1h"}},
				{Name: StageAudit, Params: map[string]string{"observer": "gw-op", "auditasync": depth}},
				{Name: StageBatch, Params: map[string]string{"size": "64", "groupseal": "on"}},
			}}
			backend := ordering.New("op", ordering.VisibilityEnvelope)
			backend.Subscribe("deals", func(ledger.Block) error { return nil })
			log := audit.NewLog()
			gw, err := NewGateway("gw", cfg, Env{CAKey: ca.PublicKey(), Directory: dir, Log: log}, backend)
			if err != nil {
				t.Fatal(err)
			}
			defer gw.Close()

			// Signed up front: the workers only submit.
			reqs := make([]*Request, n)
			for i := range reqs {
				reqs[i] = signedRequest(t, ps[[]string{"alice", "bob"}[i%2]], "deals", []byte(fmt.Sprintf("trade-%d", i)))
			}
			forged := signedRequest(t, ps["alice"], "deals", []byte("signed"))
			forged.Payload = []byte("forged")                                  // authn refuses
			unknown := signedRequest(t, ps["bob"], "nobody", []byte("orphan")) // encrypt refuses
			refused := []*Request{forged, unknown}

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < n; i += workers {
						if _, err := frontOf(gw).submit(reqs[i]); err != nil {
							t.Errorf("submit %d: %v", i, err)
						}
					}
					if w < len(refused) {
						if _, err := frontOf(gw).submit(refused[w]); err == nil {
							t.Errorf("refused submission %d accepted", w)
						}
					}
				}(w)
			}
			wg.Wait()

			for _, c := range []audit.DataClass{audit.ClassIdentity, audit.ClassTxMetadata} {
				if got := log.Count("gw-op", c); got != n {
					t.Errorf("%s observations = %d, want exactly %d", c, got, n)
				}
			}
			if got := log.Count("gw-op", audit.ClassTxData); got != 0 {
				t.Errorf("tx-data observations = %d behind encrypt, want 0", got)
			}
			if got := gw.Stats().AuditShed; got != 0 {
				t.Errorf("AuditShed = %d, want 0", got)
			}
		})
	}
}

// TestConfigAuditAsyncValidation pins the auditasync shim: in a -stages
// string, any integer >= 0 builds the one inline audit stage and a
// negative one is refused.
func TestConfigAuditAsyncValidation(t *testing.T) {
	log := audit.NewHistory()
	build := func(depth string) (*Chain, error) {
		stages, err := ParseStages("audit(auditasync=" + depth + ")")
		if err != nil {
			return nil, err
		}
		return Config{Stages: stages}.build(Env{Log: log}, (&accept{}).handler)
	}
	if _, err := build("-1"); err == nil {
		t.Fatal("negative auditasync accepted")
	}
	for _, depth := range []string{"0", "1", "256", "4096"} {
		chain, err := build(depth)
		if err != nil {
			t.Fatalf("auditasync=%s rejected: %v", depth, err)
		}
		if err := chain.execute(context.Background(), &Request{Channel: "c", Principal: "alice", Payload: []byte("p")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := log.Count("gateway", audit.ClassTxMetadata); got != 4 {
		t.Fatalf("recorded %d observations for 4 submissions, want 4: every depth records inline", got)
	}
}
