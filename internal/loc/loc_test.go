package loc

import (
	"errors"
	"math/big"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/guide"
	"dltprivacy/internal/offchain"
	"dltprivacy/internal/zkp"
)

func newApp(t *testing.T, cfg Config) *App {
	t.Helper()
	if cfg.Bank == "" {
		cfg = Config{
			Bank: "BankA", Buyer: "BuyerInc", Seller: "SellerCo",
			ExtraOrgs: []string{"RivalCorp"},
		}
	}
	app, err := NewApp(cfg)
	if err != nil {
		t.Fatalf("NewApp: %v", err)
	}
	return app
}

func buyerFunds(t *testing.T, amount int64) (*big.Int, zkp.Commitment, *big.Int) {
	t.Helper()
	balance := big.NewInt(amount)
	comm, blinding, err := zkp.CommitValue(balance)
	if err != nil {
		t.Fatalf("CommitValue: %v", err)
	}
	return balance, comm, blinding
}

// TestDeriveDesign is the E3 design check: the guide engine reaches the
// paper's §4 conclusions.
func TestDeriveDesign(t *testing.T) {
	pii, trade, interactions := DeriveDesign()
	if pii.Primary != guide.MechOffChainHash {
		t.Fatalf("PII design = %q, want off-chain with hash", pii.Primary)
	}
	if trade.Primary != guide.MechSeparateLedgers {
		t.Fatalf("trade design = %q, want separation of ledgers", trade.Primary)
	}
	if len(interactions) != 1 || interactions[0] != guide.MechSeparateLedgers {
		t.Fatalf("interaction design = %v, want separate ledger", interactions)
	}
}

func TestFullLifecycle(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 1_000_000)
	id, err := app.Apply("500 widgets", 250_000, []byte("passport M1234567"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	steps := []struct {
		name string
		fn   func() error
		want Status
	}{
		{"issue", func() error { return app.Issue(id) }, StatusIssued},
		{"ship", func() error { return app.Ship(id, "BL-778") }, StatusShipped},
		{"present", func() error { return app.Present(id) }, StatusPresented},
		{"pay", func() error { return app.Pay(id) }, StatusPaid},
	}
	for _, s := range steps {
		if err := s.fn(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		letter, err := app.Get("BankA", id)
		if err != nil {
			t.Fatalf("Get after %s: %v", s.name, err)
		}
		if letter.Status != s.want {
			t.Fatalf("after %s status = %s, want %s", s.name, letter.Status, s.want)
		}
	}
	// All three parties share the final state.
	for _, party := range []string{"BankA", "BuyerInc", "SellerCo"} {
		letter, err := app.Get(party, id)
		if err != nil || letter.Status != StatusPaid {
			t.Fatalf("%s sees %v, %v", party, letter.Status, err)
		}
	}
}

func TestLifecycleOrderEnforced(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 1000)
	id, err := app.Apply("goods", 500, []byte("pii"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// Cannot ship before issuance.
	if err := app.Ship(id, "BL-1"); err == nil {
		t.Fatal("ship before issue must fail")
	}
	if err := app.Pay(id); err == nil {
		t.Fatal("pay before presentation must fail")
	}
	if err := app.Issue(id); err != nil {
		t.Fatalf("Issue: %v", err)
	}
	if err := app.Issue(id); err == nil {
		t.Fatal("double issue must fail")
	}
}

func TestInsufficientFundsRejected(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 100)
	_, err := app.Apply("goods", 500, []byte("pii"), balance, comm, blinding)
	if !errors.Is(err, ErrInsufficientFunds) {
		t.Fatalf("Apply beyond balance = %v, want ErrInsufficientFunds", err)
	}
}

func TestFundsProofRevealsNoBalance(t *testing.T) {
	// The bank verifies the proof against the commitment only; the audit
	// trail contains no observation of the buyer's balance.
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 99_999_999)
	if _, err := app.Apply("goods", 500, []byte("pii"), balance, comm, blinding); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for _, obs := range app.Network().Log.All() {
		if obs.Item == "99999999" {
			t.Fatal("balance leaked into the audit trail")
		}
	}
}

func TestGDPRDeletion(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 1000)
	id, err := app.Apply("goods", 500, []byte("passport M1234567"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// PII is readable by the group before deletion.
	got, err := app.PIIStore().Get("pii/"+id, "SellerCo")
	if err != nil || string(got) != "passport M1234567" {
		t.Fatalf("PII read = %q, %v", got, err)
	}
	if err := app.DeletePII(id); err != nil {
		t.Fatalf("DeletePII: %v", err)
	}
	if _, err := app.PIIStore().Get("pii/"+id, "SellerCo"); !errors.Is(err, offchain.ErrDeleted) {
		t.Fatalf("PII after deletion = %v, want ErrDeleted", err)
	}
	// The anchor tombstone and the on-ledger letter survive.
	if _, err := app.PIIStore().AnchorOf("pii/" + id); err != nil {
		t.Fatalf("anchor must survive deletion: %v", err)
	}
	letter, err := app.Get("BankA", id)
	if err != nil || letter.PIIRef == "" {
		t.Fatalf("letter after deletion = %+v, %v", letter, err)
	}
}

// TestLeakageMatrix is the E3 privacy assertion: the rival organization on
// the network observes nothing about the trade, and PII never reaches anyone
// outside the trading group.
func TestLeakageMatrix(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 1000)
	id, err := app.Apply("goods", 500, []byte("pii-data"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := app.Issue(id); err != nil {
		t.Fatalf("Issue: %v", err)
	}
	log := app.Network().Log
	if violations := log.Violations(app.LeakagePolicy()); len(violations) != 0 {
		for _, v := range violations {
			t.Errorf("leak: %s", v)
		}
		t.Fatal("leakage policy violated")
	}
	// RivalCorp specifically saw nothing at all.
	for _, class := range []audit.DataClass{
		audit.ClassTxData, audit.ClassRelationship, audit.ClassIdentity, audit.ClassPII,
	} {
		if log.SawAny("RivalCorp", class) {
			t.Fatalf("RivalCorp observed %s", class)
		}
	}
}

func TestThirdPartyOrdererSeesTradeNotPII(t *testing.T) {
	app := newApp(t, Config{
		Bank: "BankA", Buyer: "BuyerInc", Seller: "SellerCo",
		ThirdPartyOrderer: "CloudOrderer",
	})
	balance, comm, blinding := buyerFunds(t, 1000)
	if _, err := app.Apply("goods", 500, []byte("pii-data"), balance, comm, blinding); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	log := app.Network().Log
	// §3.4: the third-party operator sees transactions and parties…
	if !log.SawAny("CloudOrderer", audit.ClassTxData) {
		t.Fatal("third-party orderer must see transactions")
	}
	// …but never the off-chain PII.
	if log.SawAny("CloudOrderer", audit.ClassPII) {
		t.Fatal("third-party orderer must not see PII")
	}
	if violations := log.Violations(app.LeakagePolicy()); len(violations) != 0 {
		t.Fatalf("policy violations: %v", violations)
	}
}

// TestLeakagePolicyIsPairLevel: the §4 policy's verdict on an observation
// depends only on its observer and class, never on its item, so a presence
// log (audit.NewLog), which keeps one observation per pair, judges it as
// exactly as the network's history does. Every observation of a trade with
// a third-party orderer and an outsider present, each with its item swapped
// for others, gets one verdict; and the same records replayed into a
// presence log name the same violating pairs under the policy and under
// its negation.
func TestLeakagePolicyIsPairLevel(t *testing.T) {
	app := newApp(t, Config{
		Bank: "BankA", Buyer: "BuyerInc", Seller: "SellerCo",
		ThirdPartyOrderer: "CloudOrderer", ExtraOrgs: []string{"RivalCorp"},
	})
	balance, comm, blinding := buyerFunds(t, 1000)
	id, err := app.Apply("goods", 500, []byte("pii-data"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := app.Issue(id); err != nil {
		t.Fatalf("Issue: %v", err)
	}
	policy := app.LeakagePolicy()
	history := app.Network().Log
	observed := history.All()
	for _, class := range audit.Classes() {
		observed = append(observed, audit.Observation{Observer: "RivalCorp", Class: class, Item: "x"})
	}
	for _, o := range observed {
		for _, item := range []string{"", "other-item", id} {
			if swapped := (audit.Observation{Observer: o.Observer, Class: o.Class, Item: item}); policy(swapped) != policy(o) {
				t.Fatalf("the verdict on %s changes with the item (%q)", o, item)
			}
		}
	}

	presence := audit.NewLog()
	for _, o := range history.All() {
		presence.Record(o.Observer, o.Class, o.Item)
	}
	pairs := func(obs []audit.Observation) map[string]bool {
		out := make(map[string]bool)
		for _, o := range obs {
			out[o.Observer+"/"+string(o.Class)] = true
		}
		return out
	}
	denied := func(o audit.Observation) bool { return !policy(o) }
	for _, p := range []audit.Policy{policy, denied} {
		got, want := pairs(presence.Violations(p)), pairs(history.Violations(p))
		if len(got) != len(want) {
			t.Fatalf("presence log: %d violating pairs, history %d", len(got), len(want))
		}
		for pair := range want {
			if !got[pair] {
				t.Fatalf("presence log misses violating pair %s", pair)
			}
		}
	}
	if len(pairs(history.Violations(denied))) == 0 {
		t.Fatal("the policy allowed nothing to deny: the comparison is vacuous")
	}
}

func TestClusterOrderingConfinesEverything(t *testing.T) {
	app := newApp(t, Config{
		Bank: "BankA", Buyer: "BuyerInc", Seller: "SellerCo",
		ClusterOrdering: true,
		ExtraOrgs:       []string{"RivalCorp"},
	})
	balance, comm, blinding := buyerFunds(t, 1000)
	id, err := app.Apply("goods", 500, []byte("pii"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := app.Issue(id); err != nil {
		t.Fatalf("Issue: %v", err)
	}
	// With the group running its own replicated orderer, every observer
	// of anything is the group or its peers.
	group := map[string]bool{
		"BankA": true, "BuyerInc": true, "SellerCo": true,
		"peer-BankA": true, "peer-BuyerInc": true, "peer-SellerCo": true,
	}
	for _, obs := range app.Network().Log.All() {
		if !group[obs.Observer] {
			t.Fatalf("non-group observer: %s", obs)
		}
	}
	if got := len(app.Network().OrdererOperators()); got != 3 {
		t.Fatalf("orderer operators = %d, want 3", got)
	}
}

func TestClusterAndThirdPartyExclusive(t *testing.T) {
	_, err := NewApp(Config{
		Bank: "B", Buyer: "Y", Seller: "S",
		ClusterOrdering: true, ThirdPartyOrderer: "Cloud",
	})
	if err == nil {
		t.Fatal("conflicting ordering configs must be rejected")
	}
}

func TestOutsiderCannotReadLetter(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 1000)
	id, err := app.Apply("goods", 500, []byte("pii"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := app.Get("RivalCorp", id); err == nil {
		t.Fatal("outsider must not read the letter")
	}
	if _, err := app.PIIStore().Get("pii/"+id, "RivalCorp"); !errors.Is(err, offchain.ErrUnauthorized) {
		t.Fatalf("outsider PII read = %v, want ErrUnauthorized", err)
	}
}

func TestGetUnknownLetter(t *testing.T) {
	app := newApp(t, Config{})
	if _, err := app.Get("BankA", "LOC-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v, want ErrNotFound", err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewApp(Config{Bank: "B"}); err == nil {
		t.Fatal("incomplete config must fail")
	}
}

func TestListLetters(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 10_000)
	id1, err := app.Apply("goods A", 500, []byte("pii"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	id2, err := app.Apply("goods B", 700, []byte("pii"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	letters, err := app.List("SellerCo")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(letters) != 2 {
		t.Fatalf("List = %d letters, want 2", len(letters))
	}
	if letters[id1].Goods != "goods A" || letters[id2].Goods != "goods B" {
		t.Fatalf("letters = %v", letters)
	}
	if _, err := app.List("RivalCorp"); err == nil {
		t.Fatal("outsider must not list letters")
	}
}

func TestMultipleLetters(t *testing.T) {
	app := newApp(t, Config{})
	balance, comm, blinding := buyerFunds(t, 10_000)
	id1, err := app.Apply("goods A", 500, []byte("pii"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply 1: %v", err)
	}
	id2, err := app.Apply("goods B", 700, []byte("pii"), balance, comm, blinding)
	if err != nil {
		t.Fatalf("Apply 2: %v", err)
	}
	if id1 == id2 {
		t.Fatal("letter ids must be unique")
	}
	l1, _ := app.Get("BankA", id1)
	l2, _ := app.Get("BankA", id2)
	if l1.Goods != "goods A" || l2.Goods != "goods B" {
		t.Fatalf("letters mixed up: %+v %+v", l1, l2)
	}
}
