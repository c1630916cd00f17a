package middleware

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/platform/corda"
	"dltprivacy/internal/platform/fabric"
	"dltprivacy/internal/platform/quorum"
	"dltprivacy/internal/transport"
	"dltprivacy/internal/workload"
)

// kvContract is the chaincode the Fabric adapter invokes: put(key, value).
func kvContract() contract.Contract {
	return contract.Contract{
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
}

// testPlatforms stands up all three platform models for the members and
// returns their gateway adapters.
func testPlatforms(t testing.TB, members []string) (*fabric.Network, *corda.Network, *quorum.Network, []Backend) {
	t.Helper()
	fnet, err := fabric.NewNetwork(fabric.Config{})
	if err != nil {
		t.Fatalf("fabric.NewNetwork: %v", err)
	}
	for _, m := range members {
		if _, err := fnet.AddOrg(m); err != nil {
			t.Fatalf("AddOrg %s: %v", m, err)
		}
	}
	policy := contract.Policy{Members: members, Threshold: 2}
	if err := fnet.CreateChannel("deals", members, policy); err != nil {
		t.Fatalf("CreateChannel: %v", err)
	}
	if err := fnet.InstallChaincode("deals", kvContract(), members); err != nil {
		t.Fatalf("InstallChaincode: %v", err)
	}
	fb, err := NewFabricBackend(fnet, members[0], "kv", "put", members[:2])
	if err != nil {
		t.Fatal(err)
	}

	cnet, err := corda.NewNetwork(corda.Config{})
	if err != nil {
		t.Fatalf("corda.NewNetwork: %v", err)
	}
	for _, m := range members {
		if _, err := cnet.AddParty(m); err != nil {
			t.Fatalf("AddParty %s: %v", m, err)
		}
	}
	cb, err := NewCordaBackend(cnet, members[0], members[0], members)
	if err != nil {
		t.Fatal(err)
	}

	qnet := quorum.NewNetwork()
	for _, m := range members {
		if _, err := qnet.AddNode(m); err != nil {
			t.Fatalf("AddNode %s: %v", m, err)
		}
	}
	qb, err := NewQuorumBackend(qnet, members[0], members[1:])
	if err != nil {
		t.Fatal(err)
	}
	return fnet, cnet, qnet, []Backend{fb, cb, qb}
}

// fullChainConfig is the acceptance-criteria pipeline:
// authn -> encrypt -> audit -> ratelimit -> batch.
func fullChainConfig(observer string, batch int) Config {
	return Config{Stages: []StageConfig{
		{Name: StageAuthn},
		{Name: StageEncrypt},
		{Name: StageAudit, Params: map[string]string{"observer": observer}},
		{Name: StageRateLimit, Params: map[string]string{"rate": "1000", "burst": "1000"}},
		{Name: StageBatch, Params: map[string]string{"size": fmt.Sprint(batch)}},
	}}
}

func TestGatewayEndToEnd(t *testing.T) {
	wl := workload.New(42)
	members := wl.Orgs(3)
	trades, err := wl.Trades(members, 6, 48)
	if err != nil {
		t.Fatal(err)
	}

	ca, ps := enroll(t, members...)
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		memberKeys[m] = ps[m].key.Public()
	}
	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	fnet, cnet, qnet, backends := testPlatforms(t, members)

	env := Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{"deals": memberKeys}, Log: log}
	gw, err := NewGateway("gw", fullChainConfig("gateway-op", 3), env, orderer)
	if err != nil {
		t.Fatalf("NewGateway: %v", err)
	}
	gw.Bind("deals", backends...)
	// The transaction IDs in commit order, which is submission order: one
	// submitter, one channel, batches released whole.
	var txIDs []string
	gw.Bind("deals", backendFunc{name: "ids", commit: func(b ledger.Block) error {
		for _, tx := range b.Txs {
			txIDs = append(txIDs, tx.ID())
		}
		return nil
	}})

	// Submit every workload trade through the full chain.
	for _, tr := range trades {
		payload, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		req := signedRequest(t, ps[tr.Buyer], "deals", payload)
		if err := gw.Submit(context.Background(), req); err != nil {
			t.Fatalf("Submit trade %s: %v", tr.ID, err)
		}
	}

	stats := gw.Stats()
	if stats.Submitted != 6 || stats.Ordered != 6 || stats.Rejected != 0 {
		t.Fatalf("gateway stats = %+v, want 6 submitted/6 ordered/0 rejected", stats)
	}
	for _, bs := range stats.Backends {
		if bs.Txs != 6 || bs.Errors != 0 {
			t.Fatalf("backend %s committed %d txs (%d errors), want 6/0", bs.Name, bs.Txs, bs.Errors)
		}
	}
	for _, st := range stats.Stages {
		if st.Calls != 6 {
			t.Fatalf("stage %s calls = %d, want 6", st.Name, st.Calls)
		}
		if st.Errors != 0 {
			t.Fatalf("stage %s errors = %d", st.Name, st.Errors)
		}
	}

	// Every request was ordered (batch released) and every backend holds
	// the committed envelope.
	reader := members[1]
	if len(txIDs) != len(trades) {
		t.Fatalf("%d transactions committed for %d trades", len(txIDs), len(trades))
	}
	for i, txID := range txIDs {
		// Fabric: the envelope landed in channel state under the tx ID.
		committed, err := fnet.Query("deals", reader, txID)
		if err != nil {
			t.Fatalf("fabric Query tx %s: %v", txID, err)
		}
		envl, err := ParseEnvelope(committed)
		if err != nil {
			t.Fatalf("fabric payload is not an envelope: %v", err)
		}
		got, err := OpenEnvelope(envl, reader, ps[reader].key)
		if err != nil {
			t.Fatalf("member cannot open committed envelope: %v", err)
		}
		var tr workload.Trade
		if err := json.Unmarshal(got, &tr); err != nil {
			t.Fatalf("decrypted payload: %v", err)
		}
		if tr.ID != trades[i].ID || tr.Buyer != trades[i].Buyer {
			t.Fatalf("trade %d round-trip mismatch: got %s by %s", i, tr.ID, tr.Buyer)
		}

		// Quorum: participants hold the private payload; the public chain
		// records only its hash.
		node, err := qnet.Node(reader)
		if err != nil {
			t.Fatal(err)
		}
		private, ok := node.PrivateState(txID)
		if !ok {
			t.Fatalf("quorum participant missing private state for %s", txID)
		}
		if _, err := ParseEnvelope(private); err != nil {
			t.Fatalf("quorum private payload is not the envelope: %v", err)
		}
	}

	// Corda: one issued state per trade in the custodian's vault.
	custodian, err := cnet.Party(members[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := len(custodian.Vault()); got != 6 {
		t.Fatalf("corda vault holds %d states, want 6", got)
	}

	// Quorum's public chain carries no plaintext payloads.
	for _, tx := range qnet.Chain() {
		if !tx.IsPrivate || len(tx.Payload) != 0 {
			t.Fatalf("quorum public chain leaked a payload: %+v", tx)
		}
	}

	// Leakage accounting: neither the gateway operator nor the
	// envelope-visibility orderer saw transaction data.
	for _, op := range []string{"gateway-op", "orderer-op"} {
		if log.SawAny(op, audit.ClassTxData) {
			t.Fatalf("%s observed transaction data through an encrypting pipeline", op)
		}
		if !log.SawAny(op, audit.ClassTxMetadata) {
			t.Fatalf("%s recorded no envelope metadata", op)
		}
	}
}

func TestGatewayRejectsMisorderedConfig(t *testing.T) {
	ca, _ := enroll(t, "alice")
	orderer := ordering.New("op", ordering.VisibilityEnvelope)
	cfg := Config{Stages: []StageConfig{
		{Name: StageEncrypt}, // encrypt before authn: construction-time error
		{Name: StageAuthn},
	}}
	env := Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{}}
	if _, err := NewGateway("gw", cfg, env, orderer); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("NewGateway = %v, want ErrBadConfig", err)
	}
}

func TestGatewaySubmitOverTransport(t *testing.T) {
	wl := workload.New(7)
	members := wl.Orgs(3)
	ca, ps := enroll(t, members...)
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		memberKeys[m] = ps[m].key.Public()
	}
	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	_, _, _, backends := testPlatforms(t, members)

	env := Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{"deals": memberKeys}, Log: log}
	gw, err := NewGateway("gw", fullChainConfig("gateway-op", 2), env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", backends...)

	net := transport.New()
	if err := gw.AttachTransport(context.Background(), net, "gateway"); err != nil {
		t.Fatalf("AttachTransport: %v", err)
	}

	req1 := signedRequest(t, ps[members[0]], "deals", []byte("first"))
	id1, err := SubmitOver(net, members[0], "gateway", req1)
	if err != nil {
		t.Fatalf("SubmitOver: %v", err)
	}
	if id1 != req1.ID() {
		t.Fatalf("submission id = %s, want %s", id1, req1.ID())
	}
	if h := hexID(req1.Digest()); string(h[:]) != req1.ID() || len(h) != len(req1.ID()) {
		t.Fatalf("hexID = %q, ID = %q", h[:], req1.ID())
	}

	// A tampered remote submission is rejected through the same endpoint.
	bad := signedRequest(t, ps[members[1]], "deals", []byte("second"))
	bad.Payload = []byte("altered")
	if _, err := SubmitOver(net, members[1], "gateway", bad); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered remote submission = %v, want ErrBadSignature", err)
	}

	// Second valid submission fills the batch of two and commits both.
	req2 := signedRequest(t, ps[members[1]], "deals", []byte("second"))
	if _, err := SubmitOver(net, members[1], "gateway", req2); err != nil {
		t.Fatalf("SubmitOver: %v", err)
	}
	stats := gw.Stats()
	if stats.Ordered != 2 {
		t.Fatalf("ordered = %d, want 2", stats.Ordered)
	}
	for _, bs := range stats.Backends {
		if bs.Txs != 2 {
			t.Fatalf("backend %s committed %d txs, want 2", bs.Name, bs.Txs)
		}
	}
}

func TestGatewayConcurrentSubmit(t *testing.T) {
	wl := workload.New(11)
	members := wl.Orgs(4)
	ca, ps := enroll(t, members...)
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		memberKeys[m] = ps[m].key.Public()
	}
	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	_, _, _, backends := testPlatforms(t, members)

	env := Env{CAKey: ca.PublicKey(), Directory: StaticDirectory{"deals": memberKeys}, Log: log}
	gw, err := NewGateway("gw", fullChainConfig("gateway-op", 4), env, orderer)
	if err != nil {
		t.Fatal(err)
	}
	gw.Bind("deals", backends...)

	const perMember = 8
	var wg sync.WaitGroup
	errs := make(chan error, len(members)*perMember)
	for _, m := range members {
		wg.Add(1)
		go func(m string) {
			defer wg.Done()
			for i := 0; i < perMember; i++ {
				req := &Request{
					Channel:   "deals",
					Principal: m,
					Payload:   []byte(fmt.Sprintf("%s-%d", m, i)),
					Cert:      ps[m].cert,
				}
				if err := SignRequest(req, ps[m].key); err != nil {
					errs <- err
					return
				}
				if err := gw.Submit(context.Background(), req); err != nil {
					errs <- err
					return
				}
			}
		}(m)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent submit: %v", err)
	}
	if err := gw.Flush(context.Background()); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	total := uint64(len(members) * perMember)
	stats := gw.Stats()
	if stats.Ordered != total {
		t.Fatalf("ordered = %d, want %d", stats.Ordered, total)
	}
	for _, bs := range stats.Backends {
		if bs.Txs != total || bs.Errors != 0 {
			t.Fatalf("backend %s committed %d txs (%d errors), want %d/0", bs.Name, bs.Txs, bs.Errors, total)
		}
	}
}
