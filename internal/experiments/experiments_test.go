package experiments

import (
	"strings"
	"testing"
)

func TestTable1Report(t *testing.T) {
	out, err := Table1Report()
	if err != nil {
		t.Fatalf("Table1Report: %v", err)
	}
	if !strings.Contains(out, "matches the paper's Table 1") {
		t.Fatalf("Table 1 reproduction does not match paper:\n%s", out)
	}
}

func TestFigure1Report(t *testing.T) {
	out := Figure1Report()
	for _, needle := range []string{
		"1024", "single ledger", "off-chain data with public hash",
		"merkle tree tear-offs", "trusted execution environment",
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("Figure 1 report missing %q:\n%s", needle, out)
		}
	}
}

func TestLetterOfCreditReport(t *testing.T) {
	out, err := LetterOfCreditReport()
	if err != nil {
		t.Fatalf("LetterOfCreditReport: %v", err)
	}
	for _, needle := range []string{
		"paid", "Leakage-policy violations: 0", "GDPR deletion honoured",
	} {
		if !strings.Contains(out, needle) {
			t.Fatalf("LoC report missing %q:\n%s", needle, out)
		}
	}
	if strings.Contains(out, "RivalCorp") {
		t.Fatal("RivalCorp must not appear in any observation matrix")
	}
}

func TestFabricReport(t *testing.T) {
	out, err := FabricReport()
	if err != nil {
		t.Fatalf("FabricReport: %v", err)
	}
	if strings.Contains(out, "OrgC") {
		t.Fatalf("non-member OrgC observed something:\n%s", out)
	}
	if !strings.Contains(out, "per-channel order is a gap-free hash chain on every peer (2 peers, 2 blocks)") {
		t.Fatalf("Fabric report states no chain verdict for trade's 2 peers and 2 blocks:\n%s", out)
	}
}

func TestCordaReport(t *testing.T) {
	out, err := CordaReport()
	if err != nil {
		t.Fatalf("CordaReport: %v", err)
	}
	if !strings.Contains(out, "notary") {
		t.Fatalf("Corda report missing notary view:\n%s", out)
	}
}

func TestScalingReport(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling report runs wall-clock measurements")
	}
	out, err := ScalingReport()
	if err != nil {
		t.Fatalf("ScalingReport: %v", err)
	}
	for _, needle := range []string{"channels=1", "parties=17", "zk prove", "Paillier"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("scaling report missing %q:\n%s", needle, out)
		}
	}
}

func TestQuorumReport(t *testing.T) {
	out, err := QuorumReport()
	if err != nil {
		t.Fatalf("QuorumReport: %v", err)
	}
	if !strings.Contains(out, "Double spend detected by global observer: true") {
		t.Fatalf("Quorum double spend not reproduced:\n%s", out)
	}
}
