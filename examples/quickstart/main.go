// Quickstart: submit a confidential trade through the middleware gateway.
// Three organizations enroll with the consortium CA; Alpha opens one
// persistent gateway session (paying certificate verification once),
// submits trades bound to the session token, and the pipeline seals each
// payload for the channel members before ordering commits it into a
// Fabric-model channel. The ordering tier is sharded: two independent
// envelope-visibility orderers, with the hot "deals" channel pinned to
// shard 1 by the Config pin table while every other channel would route by
// consistent hashing. Bravo — a member — decrypts the committed envelope;
// Charlie, both shard operators, and the gateway operator see nothing, not
// even whom an envelope is for: the core separation-of-ledgers mechanism
// from §2.1 of the paper, now behind one declarative pipeline instead of
// hand-wired calls. The gateway serves on a loopback TCP edge, as
// cmd/gateway does, and Alpha's token works only on the connection that
// opened it.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/contract"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/platform/fabric"
)

// txIndex records committed transaction IDs so readers can locate the
// envelopes the Fabric backend stored under them, and keeps the payloads as
// the ordering tier delivered them.
type txIndex struct {
	ids      []string
	payloads [][]byte
}

func (x *txIndex) Name() string { return "tx-index" }

func (x *txIndex) Commit(b ledger.Block) error {
	for _, tx := range b.Txs {
		x.ids = append(x.ids, tx.ID())
		x.payloads = append(x.payloads, tx.Payload)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Consortium PKI: every organization enrolls once.
	ca, err := pki.NewCA("consortium-ca")
	if err != nil {
		return err
	}
	orgs := []string{"Alpha", "Bravo", "Charlie"}
	keys := make(map[string]*dcrypto.PrivateKey, len(orgs))
	certs := make(map[string]pki.Certificate, len(orgs))
	for _, org := range orgs {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return err
		}
		cert, err := ca.Enroll(org, key.Public())
		if err != nil {
			return err
		}
		keys[org], certs[org] = key, cert
	}

	// 2. A Fabric-model network with a private channel between Alpha and
	// Bravo, fronted by the gateway.
	fnet, err := fabric.NewNetwork(fabric.Config{})
	if err != nil {
		return err
	}
	for _, org := range orgs {
		if _, err := fnet.AddOrg(org); err != nil {
			return err
		}
	}
	channelMembers := []string{"Alpha", "Bravo"}
	policy := contract.Policy{Members: channelMembers, Threshold: 2}
	if err := fnet.CreateChannel("deals", channelMembers, policy); err != nil {
		return err
	}
	kv := contract.Contract{
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
	if err := fnet.InstallChaincode("deals", kv, channelMembers); err != nil {
		return err
	}
	fb, err := middleware.NewFabricBackend(fnet, "Alpha", "kv", "put", channelMembers)
	if err != nil {
		return err
	}

	// 3. The declarative pipeline: session-amortized authentication, envelope
	// encryption to the channel members (data key cached per epoch),
	// leakage accounting. Envelope visibility keeps payloads opaque to
	// both shard operators; Shards/ShardPins declare the ordering
	// topology, checked against the backend when the gateway is built.
	log := audit.NewLog()
	orderer, err := ordering.NewSharded([]ordering.Backend{
		ordering.New("orderer-op-0", ordering.VisibilityEnvelope, ordering.WithAuditLog(log)),
		ordering.New("orderer-op-1", ordering.VisibilityEnvelope, ordering.WithAuditLog(log)),
	})
	if err != nil {
		return err
	}
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: map[string]string{"ttl": "10m", "idle": "2m"}},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
			{Name: middleware.StageAudit, Params: map[string]string{"observer": "gateway-op"}},
		},
		Shards:    2,
		ShardPins: map[string]int{"deals": 1},
	}
	env := middleware.Env{
		CAKey: ca.PublicKey(),
		Directory: middleware.StaticDirectory{"deals": {
			"Alpha": keys["Alpha"].Public(),
			"Bravo": keys["Bravo"].Public(),
		}},
		Log: log,
	}
	gw, err := middleware.NewGateway("gw", cfg, env, orderer)
	if err != nil {
		return err
	}
	index := &txIndex{}
	gw.Bind("deals", fb, index)
	// The gateway serves on the TCP edge, as cmd/gateway does.
	srv, err := netedge.Listen("127.0.0.1:0", gw)
	if err != nil {
		return err
	}
	defer srv.Close()
	client, err := netedge.Dial(srv.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()
	ctx := context.Background()

	// 4. Alpha opens one session over its connection — full PKI
	// verification happens here, once — then submits confidential trades
	// bound to the token, each MAC'd under the session key the grant
	// carries.
	grant, err := client.OpenSession(ctx, "Alpha", certs["Alpha"], keys["Alpha"], "")
	if err != nil {
		return err
	}
	fmt.Println("Alpha opened a gateway session (cert verified once)")

	// The token is bound to the connection that opened it: presented over
	// a second connection, with a valid MAC, it is refused — and the
	// refusal arrives typed, its reason carried across the socket.
	other, err := netedge.Dial(srv.Addr().String())
	if err != nil {
		return err
	}
	stolen := &middleware.Request{
		Channel: "deals", Principal: "Alpha", Payload: []byte("replayed"), SessionToken: grant.Token,
	}
	middleware.MACRequest(stolen, grant.MacKey)
	_, err = other.Submit(ctx, stolen)
	other.Close()
	if !errors.Is(err, middleware.ErrSessionBound) {
		return fmt.Errorf("token on another connection = %v, want ErrSessionBound", err)
	}
	fmt.Println("token refused on another connection (ErrSessionBound)")

	for _, deal := range []string{
		"deal-1: 10 tons of steel @ 700/t",
		"deal-2: 4 tons of copper @ 9100/t",
	} {
		req := &middleware.Request{
			Channel:      "deals",
			Principal:    "Alpha",
			Payload:      []byte(deal),
			SessionToken: grant.Token,
		}
		middleware.MACRequest(req, grant.MacKey)
		if _, err := client.Submit(ctx, req); err != nil {
			return err
		}
	}
	fmt.Println("submitted 2 trades on the session token (no certs on the wire)")
	for _, sh := range gw.Stats().Shards {
		if sh.RoutedTxs > 0 {
			fmt.Printf("shard %d (%s) ordered %d txs (pinned channels: %d)\n",
				sh.Shard, sh.Operators[0], sh.RoutedTxs, sh.PinnedChannels)
		}
	}

	// 5. Bravo, a channel member, reads and decrypts the committed state…
	for _, txID := range index.ids {
		committed, err := fnet.Query("deals", "Bravo", txID)
		if err != nil {
			return err
		}
		envl, err := middleware.ParseEnvelope(committed)
		if err != nil {
			return err
		}
		plain, err := middleware.OpenEnvelope(envl, "Bravo", keys["Bravo"])
		if err != nil {
			return err
		}
		fmt.Printf("Bravo reads (epoch %d): %s\n", envl.Epoch, plain)

		// …the outsider cannot: Charlie holds no wrapped key.
		if _, err := middleware.OpenEnvelope(envl, "Charlie", keys["Charlie"]); !errors.Is(err, middleware.ErrNotRecipient) {
			return fmt.Errorf("Charlie opened a channel envelope: %v", err)
		}
	}
	fmt.Println("Charlie cannot open the envelopes: not a channel member")

	// …and an operator holding every delivered frame learns how many keys
	// each was wrapped to, not whose: no frame names anyone.
	wraps := 0
	for _, frame := range index.payloads {
		for _, org := range orgs {
			if bytes.Contains(frame, []byte(org)) {
				return fmt.Errorf("a delivered envelope names %s", org)
			}
		}
		envl, err := middleware.ParseEnvelope(frame)
		if err != nil {
			return err
		}
		wraps = len(envl.Wraps) / dcrypto.WrappedKeySize
	}
	fmt.Printf("the orderer's envelopes carry %d wraps and no member name\n", wraps)

	// 6. Leakage accounting: no operator — gateway or either ordering
	// shard — saw transaction data.
	for _, op := range []string{"gateway-op", "orderer-op-0", "orderer-op-1"} {
		if log.SawAny(op, audit.ClassTxData) {
			return fmt.Errorf("%s observed transaction data", op)
		}
	}
	fmt.Println("audit log confirms: neither the gateway nor any shard operator saw trade data")

	// 7. Session hygiene: closed tokens are dead.
	if err := client.CloseSession(ctx, grant.Token); err != nil {
		return err
	}
	stale := &middleware.Request{
		Channel: "deals", Principal: "Alpha", Payload: []byte("late"), SessionToken: grant.Token,
	}
	middleware.MACRequest(stale, grant.MacKey)
	if _, err := client.Submit(ctx, stale); !errors.Is(err, middleware.ErrNoSession) {
		return fmt.Errorf("closed session token accepted: %v", err)
	}
	fmt.Println("closed session rejected with ErrNoSession")
	return nil
}
