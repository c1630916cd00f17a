package fabric

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
	"dltprivacy/internal/ledger"
)

// tradeChaincode records trade lots keyed by id.
func tradeChaincode() contract.Contract {
	return contract.Contract{
		Name:    "trade",
		Version: "1",
		Funcs: map[string]contract.Func{
			"record": func(ctx *contract.Context, args [][]byte) ([]byte, error) {
				if len(args) != 2 {
					return nil, errors.New("record: want key, value")
				}
				ctx.Put(string(args[0]), args[1])
				return []byte("recorded"), nil
			},
			"count": func(ctx *contract.Context, args [][]byte) ([]byte, error) {
				raw, err := ctx.Get("count")
				n := 0
				if err == nil {
					n, _ = strconv.Atoi(string(raw))
				}
				ctx.Put("count", []byte(strconv.Itoa(n+1)))
				return nil, nil
			},
		},
	}
}

// newTradeNetwork builds a 4-org network with a 2-member channel.
func newTradeNetwork(t *testing.T) *Network {
	t.Helper()
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for _, org := range []string{"BankA", "SellerCo", "BuyerInc", "Outsider"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatalf("AddOrg(%s): %v", org, err)
		}
	}
	policy := contract.Policy{Members: []string{"BankA", "SellerCo"}, Threshold: 2}
	if err := n.CreateChannel("trade", []string{"BankA", "SellerCo"}, policy); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := n.InstallChaincode("trade", tradeChaincode(), []string{"BankA", "SellerCo"}); err != nil {
		t.Fatalf("InstallChaincode: %v", err)
	}
	return n
}

func TestInvokeCommitsOnAllMembers(t *testing.T) {
	n := newTradeNetwork(t)
	id, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("lot-1"), []byte("100 widgets")}, []string{"BankA", "SellerCo"})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if id == "" {
		t.Fatal("empty tx id")
	}
	for _, org := range []string{"BankA", "SellerCo"} {
		got, err := n.Query("trade", org, "lot-1")
		if err != nil {
			t.Fatalf("Query on %s: %v", org, err)
		}
		if !bytes.Equal(got, []byte("100 widgets")) {
			t.Fatalf("Query on %s = %q", org, got)
		}
	}
}

func TestNonMemberCannotQuery(t *testing.T) {
	n := newTradeNetwork(t)
	if _, err := n.Query("trade", "Outsider", "lot-1"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("outsider Query = %v, want ErrNotMember", err)
	}
	if _, err := n.Query("trade", "BuyerInc", "lot-1"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("non-member Query = %v, want ErrNotMember", err)
	}
}

func TestNonMemberCannotInvoke(t *testing.T) {
	n := newTradeNetwork(t)
	_, err := n.Invoke("trade", "Outsider", "trade", "record",
		[][]byte{[]byte("k"), []byte("v")}, []string{"BankA", "SellerCo"})
	if !errors.Is(err, ErrNotMember) {
		t.Fatalf("outsider Invoke = %v, want ErrNotMember", err)
	}
}

func TestChannelMembershipHiddenFromNonMembers(t *testing.T) {
	n := newTradeNetwork(t)
	if _, err := n.Members("trade", "Outsider"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("outsider Members = %v, want ErrNotMember", err)
	}
	members, err := n.Members("trade", "BankA")
	if err != nil {
		t.Fatalf("member Members: %v", err)
	}
	if len(members) != 2 {
		t.Fatalf("Members = %v", members)
	}
	// Orderer operator can see membership (§3.4 caveat).
	if _, err := n.Members("trade", n.OrdererOperator()); err != nil {
		t.Fatalf("orderer Members: %v", err)
	}
}

func TestLeakageMatrix(t *testing.T) {
	n := newTradeNetwork(t)
	id, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("lot-1"), []byte("secret cargo")}, []string{"BankA", "SellerCo"})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	log := n.Log
	// Members and the orderer saw the tx data; nobody else did.
	for _, member := range []string{"BankA", "SellerCo", n.OrdererOperator()} {
		if !log.Saw(member, audit.ClassTxData, id) {
			t.Fatalf("%s must see tx data", member)
		}
	}
	for _, outsider := range []string{"BuyerInc", "Outsider"} {
		if log.Saw(outsider, audit.ClassTxData, id) {
			t.Fatalf("%s must not see tx data", outsider)
		}
		if log.SawAny(outsider, audit.ClassRelationship) {
			t.Fatalf("%s must not see channel relationships", outsider)
		}
	}
}

func TestOrdererSeesEverything(t *testing.T) {
	n := newTradeNetwork(t)
	id, _ := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("k"), []byte("v")}, []string{"BankA", "SellerCo"})
	op := n.OrdererOperator()
	if !n.Log.Saw(op, audit.ClassTxData, id) {
		t.Fatal("orderer must see transaction data (§3.4)")
	}
	if !n.Log.Saw(op, audit.ClassIdentity, "BankA") {
		t.Fatal("orderer must see transacting identities")
	}
}

func TestMemberRunOrdererConfinesLeak(t *testing.T) {
	n, err := NewNetwork(Config{OrdererOperator: "BankA"})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for _, org := range []string{"BankA", "SellerCo"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatalf("AddOrg: %v", err)
		}
	}
	policy := contract.Policy{Members: []string{"BankA", "SellerCo"}, Threshold: 1}
	if err := n.CreateChannel("trade", []string{"BankA", "SellerCo"}, policy); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := n.InstallChaincode("trade", tradeChaincode(), []string{"BankA"}); err != nil {
		t.Fatalf("InstallChaincode: %v", err)
	}
	id, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("k"), []byte("v")}, []string{"BankA"})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// The "orderer" leak is now confined to a channel member: no
	// principal outside the channel saw anything.
	observers := n.Log.Observers(audit.ClassTxData, id)
	for _, o := range observers {
		if o != "BankA" && o != "SellerCo" {
			t.Fatalf("unexpected observer %q with member-run orderer", o)
		}
	}
}

func TestEndorsementPolicyEnforced(t *testing.T) {
	n := newTradeNetwork(t)
	// Only one endorsement where the policy needs two.
	_, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("k"), []byte("v")}, []string{"BankA"})
	if !errors.Is(err, contract.ErrPolicyUnsatisfied) {
		t.Fatalf("single endorsement = %v, want ErrPolicyUnsatisfied", err)
	}
}

func TestChaincodeConfinedToInstalledPeers(t *testing.T) {
	n := newTradeNetwork(t)
	if !n.ChaincodeInstalledOn("BankA", "trade") {
		t.Fatal("chaincode must be installed on BankA")
	}
	if n.ChaincodeInstalledOn("BuyerInc", "trade") {
		t.Fatal("chaincode must not be on BuyerInc")
	}
	// Logic observation is confined to installed peers.
	if n.Log.SawAny("peer-BuyerInc", audit.ClassBusinessLogic) {
		t.Fatal("uninvolved peer observed business logic")
	}
	if !n.Log.Saw("peer-BankA", audit.ClassBusinessLogic, "trade") {
		t.Fatal("installed peer must have the logic")
	}
}

func TestEndorserWithoutChaincodeFails(t *testing.T) {
	n := newTradeNetwork(t)
	// BuyerInc joins the channel but has no chaincode; endorsing through
	// it must fail.
	policy := contract.Policy{Members: []string{"BankA", "BuyerInc"}, Threshold: 1}
	if err := n.CreateChannel("trade2", []string{"BankA", "BuyerInc"}, policy); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := n.InstallChaincode("trade2", tradeChaincode(), []string{"BankA"}); err != nil {
		t.Fatalf("InstallChaincode: %v", err)
	}
	_, err := n.Invoke("trade2", "BankA", "trade", "record",
		[][]byte{[]byte("k"), []byte("v")}, []string{"BuyerInc"})
	if !errors.Is(err, ErrEndorsementFailed) {
		t.Fatalf("endorsement without chaincode = %v, want ErrEndorsementFailed", err)
	}
}

func TestSeparateChannelsSeparateState(t *testing.T) {
	n := newTradeNetwork(t)
	policy := contract.Policy{Members: []string{"BankA", "BuyerInc"}, Threshold: 2}
	if err := n.CreateChannel("finance", []string{"BankA", "BuyerInc"}, policy); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := n.InstallChaincode("finance", tradeChaincode(), []string{"BankA", "BuyerInc"}); err != nil {
		t.Fatalf("InstallChaincode: %v", err)
	}
	if _, err := n.Invoke("trade", "BankA", "trade", "record",
		[][]byte{[]byte("shared-key"), []byte("trade-value")}, []string{"BankA", "SellerCo"}); err != nil {
		t.Fatalf("Invoke trade: %v", err)
	}
	// The same key is absent on the other channel.
	if _, err := n.Query("finance", "BankA", "shared-key"); !errors.Is(err, ledger.ErrNotFound) {
		t.Fatalf("cross-channel Query = %v, want ErrNotFound", err)
	}
	// SellerCo is not on finance at all.
	if _, err := n.Query("finance", "SellerCo", "shared-key"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("SellerCo on finance = %v, want ErrNotMember", err)
	}
}

func TestPrivateDataCollection(t *testing.T) {
	n, err := NewNetwork(Config{})
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for _, org := range []string{"BankA", "SellerCo", "BuyerInc"} {
		if _, err := n.AddOrg(org); err != nil {
			t.Fatalf("AddOrg: %v", err)
		}
	}
	policy := contract.Policy{Members: []string{"BankA", "SellerCo", "BuyerInc"}, Threshold: 1}
	if err := n.CreateChannel("trade", []string{"BankA", "SellerCo", "BuyerInc"}, policy); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := n.CreateCollection("trade", "pricing", []string{"BankA", "SellerCo"}); err != nil {
		t.Fatalf("CreateCollection: %v", err)
	}
	id, err := n.PutPrivate("trade", "pricing", "BankA", "deal-1", []byte("unit price 4.20"))
	if err != nil {
		t.Fatalf("PutPrivate: %v", err)
	}
	// Collection members read the data.
	got, err := n.GetPrivate("trade", "pricing", "SellerCo", "deal-1")
	if err != nil || string(got) != "unit price 4.20" {
		t.Fatalf("GetPrivate = %q, %v", got, err)
	}
	// Channel member outside the collection cannot.
	if _, err := n.GetPrivate("trade", "pricing", "BuyerInc", "deal-1"); !errors.Is(err, ErrNotMember) {
		t.Fatalf("non-collection GetPrivate = %v, want ErrNotMember", err)
	}
	// But it CAN see the hash and the collection member list — the §5
	// caveat: "members of PDCs are listed in associated transactions".
	if !n.Log.Saw("BuyerInc", audit.ClassTxHash, id) {
		t.Fatal("channel member must see the private-data hash tx")
	}
	if !n.Log.Saw("BuyerInc", audit.ClassRelationship, "pdc:pricing:BankA,SellerCo") {
		t.Fatal("channel member must see the collection member list (documented leak)")
	}
	// And never the payload.
	if n.Log.Saw("BuyerInc", audit.ClassTxData, id) {
		t.Fatal("channel member outside collection must not see payload")
	}
	// Provenance verification against the on-chain anchor.
	if err := n.VerifyPrivate("trade", "pricing", "SellerCo", "deal-1", got); err != nil {
		t.Fatalf("VerifyPrivate: %v", err)
	}
	if err := n.VerifyPrivate("trade", "pricing", "SellerCo", "deal-1", []byte("forged")); err == nil {
		t.Fatal("forged private data must fail anchor verification")
	}
}

func TestCollectionRequiresChannelMembers(t *testing.T) {
	n := newTradeNetwork(t)
	if err := n.CreateCollection("trade", "c", []string{"BankA", "Outsider"}); !errors.Is(err, ErrNotMember) {
		t.Fatalf("CreateCollection with outsider = %v, want ErrNotMember", err)
	}
	if _, err := n.PutPrivate("trade", "ghost", "BankA", "k", nil); !errors.Is(err, ErrUnknownCollection) {
		t.Fatalf("PutPrivate unknown collection = %v, want ErrUnknownCollection", err)
	}
}

func TestAnonymousInvoke(t *testing.T) {
	n := newTradeNetwork(t)
	writes := []ledger.Write{{Key: "anon-1", Value: []byte("posted")}}
	id, nym, err := n.AnonymousInvoke("trade", "SellerCo", writes)
	if err != nil {
		t.Fatalf("AnonymousInvoke: %v", err)
	}
	// Committed state visible to members.
	got, err := n.Query("trade", "BankA", "anon-1")
	if err != nil || string(got) != "posted" {
		t.Fatalf("Query = %q, %v", got, err)
	}
	// The orderer saw a pseudonym, not the enrollment identity.
	op := n.OrdererOperator()
	if !n.Log.Saw(op, audit.ClassIdentity, nym) {
		t.Fatal("orderer must see the pseudonym as creator")
	}
	ids := n.Log.ItemsSeen(op, audit.ClassIdentity)
	for _, seen := range ids {
		if seen == "SellerCo" {
			// SellerCo appears from channel creation; assert the
			// anonymous tx itself did not link: the tx creator
			// identity recorded for this tx is the nym.
			continue
		}
	}
	if n.Log.Saw(op, audit.ClassTxData, id) != true {
		t.Fatal("orderer still sees tx data under idemix (identity, not data, is protected)")
	}
	// Same org, same channel: pseudonym is stable (scope-exclusive).
	_, nym2, err := n.AnonymousInvoke("trade", "SellerCo", []ledger.Write{{Key: "anon-2", Value: []byte("x")}})
	if err != nil {
		t.Fatalf("AnonymousInvoke: %v", err)
	}
	if nym != nym2 {
		t.Fatal("same-channel pseudonyms must match (scope-exclusive)")
	}
}

func TestReplicasStayConsistent(t *testing.T) {
	n := newTradeNetwork(t)
	for i := 0; i < 5; i++ {
		if _, err := n.Invoke("trade", "BankA", "trade", "count", nil,
			[]string{"BankA", "SellerCo"}); err != nil {
			t.Fatalf("Invoke %d: %v", i, err)
		}
	}
	h1, _ := n.Height("trade", "BankA")
	h2, _ := n.Height("trade", "SellerCo")
	if h1 != 5 || h2 != 5 {
		t.Fatalf("heights = %d, %d; want 5, 5", h1, h2)
	}
	v1, _ := n.Query("trade", "BankA", "count")
	v2, _ := n.Query("trade", "SellerCo", "count")
	if string(v1) != "5" || string(v2) != "5" {
		t.Fatalf("counts = %q, %q; want 5", v1, v2)
	}
}

// TestVerifyChainsSeesAPayloadWrittenOver runs the chain check over every
// member's replica, and then again after one committed payload byte was
// written over: the replicas' digests were memoised at intake, the check
// hashes the bytes.
func TestVerifyChainsSeesAPayloadWrittenOver(t *testing.T) {
	n := newTradeNetwork(t)
	for i := 0; i < 3; i++ {
		if _, err := n.Invoke("trade", "BankA", "trade", "count", nil,
			[]string{"BankA", "SellerCo"}); err != nil {
			t.Fatalf("Invoke %d: %v", i, err)
		}
	}
	if peers, height, err := n.VerifyChains("trade"); err != nil || peers != 2 || height != 3 {
		t.Fatalf("VerifyChains = %d peers, %d blocks, %v; want 2, 3, nil", peers, height, err)
	}
	o, err := n.Org("SellerCo")
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.ledgers["trade"].Block(1)
	if err != nil {
		t.Fatal(err)
	}
	b.Txs[0].Payload[0] ^= 1
	if _, _, err := n.VerifyChains("trade"); !errors.Is(err, ledger.ErrBadBlock) || !strings.Contains(err.Error(), "block 1's data hash") {
		t.Fatalf("VerifyChains after a payload was written over = %v, want block 1's data hash refused", err)
	}
	if _, _, err := n.VerifyChains("nowhere"); !errors.Is(err, ErrUnknownChannel) {
		t.Fatalf("VerifyChains on an unknown channel = %v, want ErrUnknownChannel", err)
	}
}

func TestDuplicateOrgAndChannel(t *testing.T) {
	n := newTradeNetwork(t)
	if _, err := n.AddOrg("BankA"); err == nil {
		t.Fatal("duplicate org must fail")
	}
	if err := n.CreateChannel("trade", []string{"BankA"}, contract.Policy{}); err == nil {
		t.Fatal("duplicate channel must fail")
	}
	if err := n.CreateChannel("x", []string{"Nobody"}, contract.Policy{}); !errors.Is(err, ErrUnknownOrg) {
		t.Fatalf("channel with unknown org = %v, want ErrUnknownOrg", err)
	}
}
