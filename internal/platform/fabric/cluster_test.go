package fabric

import (
	"slices"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
)

// newClusterNetwork builds a network whose ordering service is a replicated
// cluster run by the three channel members — the full §3.4 mitigation.
func newClusterNetwork(t *testing.T) *Network {
	t.Helper()
	members := []string{"BankA", "SellerCo", "BuyerInc"}
	n, err := NewNetwork(Config{OrdererCluster: members})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for _, org := range append(members, "Outsider") {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatalf("AddOrg(%s): %v", org, err)
		}
	}
	policy := contract.Policy{Members: members, Threshold: 1}
	if err := n.CreateChannel("trade", members, policy); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := n.InstallChaincode("trade", tradeChaincode(), []string{"BankA"}); err != nil {
		t.Fatalf("InstallChaincode: %v", err)
	}
	return n
}

func TestClusterBackedNetworkCommits(t *testing.T) {
	n := newClusterNetwork(t)
	if _, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("k"), []byte("v")}, []string{"BankA"}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	for _, org := range []string{"BankA", "SellerCo", "BuyerInc"} {
		got, err := n.Query("trade", org, "k")
		if err != nil || string(got) != "v" {
			t.Fatalf("Query on %s = %q, %v", org, got, err)
		}
	}
	if len(n.OrdererOperators()) != 3 {
		t.Fatalf("operators = %v, want 3 members", n.OrdererOperators())
	}
}

func TestClusterConfinesOrderingLeakToMembers(t *testing.T) {
	n := newClusterNetwork(t)
	id, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("k"), []byte("v")}, []string{"BankA"})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// Every observer of the tx data is a channel member (or its peer):
	// the §3.4 leak is fully confined.
	members := map[string]bool{"BankA": true, "SellerCo": true, "BuyerInc": true}
	for _, obs := range n.Log.Observers(audit.ClassTxData, id) {
		if !members[obs] {
			t.Fatalf("non-member observer %q of tx data", obs)
		}
	}
	if n.Log.SawAny("Outsider", audit.ClassTxData) {
		t.Fatal("outsider observed tx data")
	}
	if n.Log.SawAny("orderer-org", audit.ClassTxMetadata) {
		t.Fatal("no third-party orderer principal should exist")
	}
}

func TestClusterSurvivesLeaderCrash(t *testing.T) {
	n := newClusterNetwork(t)
	if _, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("k0"), []byte("v")}, []string{"BankA"}); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	cluster, err := n.OrderingCluster("trade")
	if err != nil {
		t.Fatalf("OrderingCluster: %v", err)
	}
	leader, err := cluster.Leader()
	if err != nil {
		t.Fatalf("Leader: %v", err)
	}
	if err := cluster.Crash(leader); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	// The next submission rides the shard's automatic election.
	if _, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("k1"), []byte("v")}, []string{"BankA"}); err != nil {
		t.Fatalf("Invoke after failover: %v", err)
	}
	got, err := n.Query("trade", "SellerCo", "k1")
	if err != nil || string(got) != "v" {
		t.Fatalf("Query after failover = %q, %v", got, err)
	}
	if next, err := cluster.Leader(); err != nil || next == leader {
		t.Fatalf("Leader after failover = %q, %v; want a new leader", next, err)
	}
}

func TestClusterTooSmallRejected(t *testing.T) {
	if _, err := NewNetwork(Config{OrdererCluster: []string{"A", "B"}}); err == nil {
		t.Fatal("2-member cluster must be rejected")
	}
}

func TestSoloNetworkHasNoCluster(t *testing.T) {
	n := newTradeNetwork(t)
	if _, err := n.OrderingCluster("trade"); err == nil {
		t.Fatal("solo network must not expose a cluster")
	}
}

// TestOrderingLeakIsTheSameSoloOrReplicated holds the §3.4 claim to one
// statement: a full-visibility orderer learns the parties to a transaction
// and who endorsed for whom, whichever shape it takes. The same Invoke
// through a one-operator and a three-operator ordering service leaves every
// operator with the same identities and relationships.
func TestOrderingLeakIsTheSameSoloOrReplicated(t *testing.T) {
	members := []string{"A", "B", "C"}
	invoke := func(cfg Config) *Network {
		t.Helper()
		n, err := NewNetwork(cfg)
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		for _, org := range members {
			if _, err := n.AddOrg(org); err != nil {
				t.Fatalf("AddOrg(%s): %v", org, err)
			}
		}
		if err := n.CreateChannel("ch", members, contract.Policy{Members: members, Threshold: 2}); err != nil {
			t.Fatalf("CreateChannel: %v", err)
		}
		if err := n.InstallChaincode("ch", tradeChaincode(), []string{"A", "B"}); err != nil {
			t.Fatalf("InstallChaincode: %v", err)
		}
		if _, err := n.Invoke("ch", "A", "trade", "record",
			[][]byte{[]byte("k"), []byte("v")}, []string{"A", "B"}); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		return n
	}
	solo := invoke(Config{OrdererOperator: "op-0"})
	replicated := invoke(Config{OrdererCluster: []string{"op-0", "op-1", "op-2"}})
	for _, class := range []audit.DataClass{audit.ClassIdentity, audit.ClassRelationship} {
		want := solo.Log.ItemsSeen("op-0", class)
		if len(want) < 2 {
			t.Fatalf("solo operator saw %v of class %v; want the channel's configuration and the transaction's parties", want, class)
		}
		for _, op := range replicated.OrdererOperators() {
			if got := replicated.Log.ItemsSeen(op, class); !slices.Equal(got, want) {
				t.Errorf("class %v: operator %s of 3 saw %v, the solo operator %v", class, op, got, want)
			}
		}
	}
}
