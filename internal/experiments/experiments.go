package experiments

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
	"dltprivacy/internal/guide"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/loc"
	"dltprivacy/internal/platform/corda"
	"dltprivacy/internal/platform/fabric"
	"dltprivacy/internal/platform/quorum"
	"dltprivacy/internal/zkp"
)

// Table1Report regenerates Table 1 and reports the diff against the paper.
func Table1Report() (string, error) {
	matrix, err := guide.GenerateTable1()
	if err != nil {
		return "", fmt.Errorf("generate table 1: %w", err)
	}
	var b strings.Builder
	b.WriteString("=== E1: Table 1 — mechanism support across HLF / Corda / Quorum ===\n\n")
	b.WriteString(matrix.Render())
	diffs := matrix.Diff(guide.PaperTable1())
	if len(diffs) == 0 {
		b.WriteString("\nRegenerated matrix matches the paper's Table 1 in all ")
		fmt.Fprintf(&b, "%d cells.\n", len(guide.Rows())*len(guide.Platforms()))
	} else {
		b.WriteString("\nMISMATCHES vs paper:\n")
		for _, d := range diffs {
			b.WriteString("  " + d + "\n")
		}
	}
	return b.String(), nil
}

// Figure1Report enumerates the decision tree and tabulates leaf frequencies,
// then walks the labelled outcomes.
func Figure1Report() string {
	var b strings.Builder
	b.WriteString("=== E2: Figure 1 — decision tree for transaction confidentiality ===\n\n")

	leaves := make(map[guide.Mechanism]int)
	for _, r := range guide.EnumerateRequirements() {
		leaves[guide.Decide(r).Primary]++
	}
	type lc struct {
		m guide.Mechanism
		n int
	}
	var rows []lc
	for m, n := range leaves {
		rows = append(rows, lc{m, n})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	b.WriteString(fmt.Sprintf("Exhaustive enumeration of %d requirement combinations:\n", 1024))
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-44s %4d combinations\n", r.m, r.n)
	}

	b.WriteString("\nLabelled paths (paper outcomes):\n")
	examples := []struct {
		label string
		req   guide.Requirements
	}{
		{"no confidential data", guide.Requirements{}},
		{"GDPR deletion", guide.Requirements{DataConfidential: true, DeletionRequired: true}},
		{"no encrypted sharing", guide.Requirements{DataConfidential: true}},
		{"parts hidden from participants", guide.Requirements{DataConfidential: true, PartsPrivateToSubset: true}},
		{"blind validators + hidden logic", guide.Requirements{DataConfidential: true, EncryptedSharingAllowed: true, HideBusinessLogic: true}},
		{"blind validators", guide.Requirements{DataConfidential: true, EncryptedSharingAllowed: true}},
		{"owner-only data, boolean proof", guide.Requirements{DataConfidential: true, EncryptedSharingAllowed: true, ValidatorsMayRead: true, PrivateToOwnerOnly: true, BooleanProofsEnough: true}},
		{"owner-only data, secret ballot", guide.Requirements{DataConfidential: true, EncryptedSharingAllowed: true, ValidatorsMayRead: true, PrivateToOwnerOnly: true, CollectiveComputation: true}},
	}
	for _, e := range examples {
		d := guide.Decide(e.req)
		fmt.Fprintf(&b, "  %-36s -> %s\n", e.label, d.Primary)
		for _, step := range d.Path {
			fmt.Fprintf(&b, "      %s\n", step)
		}
	}
	return b.String()
}

// renderMatrix prints one audit-class matrix.
func renderMatrix(b *strings.Builder, log *audit.Log, class audit.DataClass, title string) {
	fmt.Fprintf(b, "%s:\n", title)
	m := log.Matrix(class)
	if len(m) == 0 {
		b.WriteString("  (nobody)\n")
		return
	}
	observers := make([]string, 0, len(m))
	for o := range m {
		observers = append(observers, o)
	}
	sort.Strings(observers)
	for _, o := range observers {
		items := m[o]
		if len(items) > 3 {
			items = append(items[:3], fmt.Sprintf("… %d more", len(m[o])-3))
		}
		fmt.Fprintf(b, "  %-18s %s\n", o, strings.Join(items, ", "))
	}
}

// LetterOfCreditReport runs the §4 scenario end to end (E3).
func LetterOfCreditReport() (string, error) {
	var b strings.Builder
	b.WriteString("=== E3: §4 letter of credit — derived design and leakage ===\n\n")

	pii, trade, interactions := loc.DeriveDesign()
	fmt.Fprintf(&b, "Derived design:\n  PII          -> %s\n  trade data   -> %s\n  interactions -> %v\n\n",
		pii.Primary, trade.Primary, interactions)

	app, err := loc.NewApp(loc.Config{
		Bank: "BankA", Buyer: "BuyerInc", Seller: "SellerCo",
		ExtraOrgs: []string{"RivalCorp"},
	})
	if err != nil {
		return "", fmt.Errorf("loc app: %w", err)
	}
	balance := big.NewInt(1_000_000)
	comm, blinding, err := zkp.CommitValue(balance)
	if err != nil {
		return "", err
	}
	id, err := app.Apply("500 widgets", 250_000, []byte("passport M1234567"), balance, comm, blinding)
	if err != nil {
		return "", fmt.Errorf("apply: %w", err)
	}
	for _, step := range []func() error{
		func() error { return app.Issue(id) },
		func() error { return app.Ship(id, "BL-778") },
		func() error { return app.Present(id) },
		func() error { return app.Pay(id) },
	} {
		if err := step(); err != nil {
			return "", fmt.Errorf("lifecycle: %w", err)
		}
	}
	letter, err := app.Get("BankA", id)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "Lifecycle complete: %s is %s (amount %d cents)\n\n", id, letter.Status, letter.AmountCents)

	log := app.Network().Log
	renderMatrix(&b, log, audit.ClassTxData, "Who saw transaction data")
	renderMatrix(&b, log, audit.ClassPII, "Who saw PII")
	violations := log.Violations(app.LeakagePolicy())
	fmt.Fprintf(&b, "\nLeakage-policy violations: %d\n", len(violations))
	if err := app.DeletePII(id); err != nil {
		return "", err
	}
	b.WriteString("GDPR deletion honoured: PII erased, anchor retained on ledger.\n")
	return b.String(), nil
}

// FabricReport demonstrates the §5 Fabric claims (E4).
func FabricReport() (string, error) {
	var b strings.Builder
	b.WriteString("=== E4: §5 Hyperledger Fabric claims ===\n\n")
	n, err := fabric.NewNetwork(fabric.Config{})
	if err != nil {
		return "", err
	}
	for _, org := range []string{"OrgA", "OrgB", "OrgC"} {
		if _, err := n.AddOrg(org); err != nil {
			return "", err
		}
	}
	policy := contract.Policy{Members: []string{"OrgA", "OrgB"}, Threshold: 1}
	if err := n.CreateChannel("trade", []string{"OrgA", "OrgB"}, policy); err != nil {
		return "", err
	}
	if err := n.CreateCollection("trade", "pricing", []string{"OrgA"}); err != nil {
		return "", err
	}
	if _, err := n.PutPrivate("trade", "pricing", "OrgA", "deal", []byte("price 42")); err != nil {
		return "", err
	}
	if _, _, err := n.AnonymousInvoke("trade", "OrgB",
		[]ledger.Write{{Key: "anon", Value: []byte("v")}}); err != nil {
		return "", err
	}
	renderMatrix(&b, n.Log, audit.ClassTxData, "Transaction data")
	renderMatrix(&b, n.Log, audit.ClassRelationship, "Relationships")
	peers, height, err := n.VerifyChains("trade")
	if err != nil {
		return "", fmt.Errorf("trade chain: %w", err)
	}
	fmt.Fprintf(&b, "\nper-channel order is a gap-free hash chain on every peer (%d peers, %d blocks)\n", peers, height)
	b.WriteString("\nClaims verified in tests: channel confinement; orderer full visibility;\n" +
		"PDC hides payload but reveals member list; Idemix pseudonymous creators.\n")
	return b.String(), nil
}

// CordaReport demonstrates the §5 Corda claims (E5).
func CordaReport() (string, error) {
	var b strings.Builder
	b.WriteString("=== E5: §5 Corda claims ===\n\n")
	n, err := corda.NewNetwork(corda.Config{})
	if err != nil {
		return "", err
	}
	for _, p := range []string{"PartyA", "PartyB", "PartyC"} {
		if _, err := n.AddParty(p); err != nil {
			return "", err
		}
	}
	if _, err := n.Issue("PartyA", "PartyB", []byte("deal"), []string{"PartyA", "PartyB"}); err != nil {
		return "", err
	}
	pb, err := n.Party("PartyB")
	if err != nil {
		return "", err
	}
	if _, err := n.Transfer("PartyB", pb.Vault()[0], "PartyC", nil, nil); err != nil {
		return "", err
	}
	renderMatrix(&b, n.Log, audit.ClassTxData, "Transaction data")
	renderMatrix(&b, n.Log, audit.ClassTxMetadata, "Notary view (metadata only)")
	b.WriteString("\nClaims verified in tests: P2P distribution; one-time owner keys;\n" +
		"tear-off oracle attestation; notary double-spend prevention; off-platform logic.\n")
	return b.String(), nil
}

// QuorumReport demonstrates the §5 Quorum claims (E6).
func QuorumReport() (string, error) {
	var b strings.Builder
	b.WriteString("=== E6: §5 Quorum claims ===\n\n")
	n := quorum.NewNetwork()
	for _, name := range []string{"A", "B", "C"} {
		if _, err := n.AddNode(name); err != nil {
			return "", err
		}
	}
	if _, err := n.SendPrivate("A", []string{"B"}, "deal", []byte("price 42")); err != nil {
		return "", err
	}
	// Reproduce the double spend.
	if _, err := n.IssuePrivateAsset("A", "X", "A", []string{"B"}); err != nil {
		return "", err
	}
	if _, err := n.TransferPrivateAsset("A", "X", "B", []string{"B"}); err != nil {
		return "", err
	}
	// Malicious sender resets its view and spends again to C.
	a, err := n.Node("A")
	if err != nil {
		return "", err
	}
	if _, err := n.SendPrivate("A", nil, "asset/X", []byte("A")); err != nil {
		return "", err
	}
	_ = a
	if _, err := n.TransferPrivateAsset("A", "X", "C", []string{"C"}); err != nil {
		return "", err
	}
	renderMatrix(&b, n.Log, audit.ClassTxData, "Private payloads")
	renderMatrix(&b, n.Log, audit.ClassRelationship, "Participant lists (public chain)")
	fmt.Fprintf(&b, "\nAsset X owner views: %v\n", n.AssetViews("X"))
	fmt.Fprintf(&b, "Double spend detected by global observer: %v\n", n.DoubleSpendDetected("X"))
	b.WriteString("\nClaims verified in tests: payload confinement; participant-list leak\n" +
		"to the whole network; private-asset double spend.\n")
	return b.String(), nil
}
