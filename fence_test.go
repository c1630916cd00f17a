package dltprivacy_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestServingPathFencedFromPaperReproduction keeps the paper-reproduction
// packages (the design-guide probes, the letter-of-credit walkthrough, the
// experiment harness, the MPC model) out of the serving path's import
// graph: the gateway and loadgen binaries and the packages they are built
// from must never come to depend on code that exists to regenerate the
// paper's tables. internal/offchain is deliberately not fenced — the
// platform/fabric adapter reaches it legitimately.
func TestServingPathFencedFromPaperReproduction(t *testing.T) {
	serving := []string{
		"./cmd/gateway", "./cmd/loadgen",
		"./internal/middleware", "./internal/netedge", "./internal/ordering", "./internal/telemetry",
	}
	fenced := map[string]bool{
		"dltprivacy/internal/guide":       true,
		"dltprivacy/internal/loc":         true,
		"dltprivacy/internal/experiments": true,
		"dltprivacy/internal/mpc":         true,
	}
	out, err := exec.Command("go", append([]string{"list", "-deps"}, serving...)...).Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if fenced[pkg] {
			t.Errorf("serving path depends on paper-reproduction package %s", pkg)
		}
	}
}
