// Secret ballot: the paper's motivating example for multiparty computation
// (§2.2 / Figure 1 "Collective computation?"). Five consortium members vote
// on admitting a new member; nobody learns anyone else's vote, every member
// computes the same tally — and the tally is committed to the governance
// channel through the middleware gateway over a persistent session, so the
// ballot result itself stays sealed from the gateway and orderer operators
// instead of being hand-appended to a shared ledger in plaintext.
//
// The run also demonstrates the revocation plane mid-ballot: after the
// preliminary tally is committed, one member's certificate is revoked. Its
// live session is evicted (the late submission fails with
// ErrSessionRevoked), and the ratified tally is sealed under a fresh key
// epoch the revoked member cannot open — trust withdrawal reaches both the
// session cache and the channel keys, not just new handshakes.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/mpc"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// vault collects committed envelopes so members can open them.
type vault struct{ payloads [][]byte }

func (v *vault) Name() string { return "vault" }

func (v *vault) Commit(b ledger.Block) error {
	for _, tx := range b.Txs {
		v.payloads = append(v.payloads, tx.Payload)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "secretballot:", err)
		os.Exit(1)
	}
}

func run() error {
	votes := map[string]bool{
		"BankA":     true,
		"BankB":     false,
		"SellerCo":  true,
		"BuyerInc":  true,
		"Logistics": false,
	}
	yes, res, err := mpc.SecretBallot(votes)
	if err != nil {
		return err
	}
	fmt.Printf("ballot closed: %d yes of %d votes\n", yes, len(votes))

	// Privacy evidence: the transcript contains only uniformly random
	// shares and aggregated partial sums.
	shares, partials := 0, 0
	for _, m := range res.Transcript {
		switch m.Kind {
		case mpc.KindShare:
			shares++
		case mpc.KindPartialSum:
			partials++
		}
	}
	fmt.Printf("transcript: %d share messages, %d partial-sum messages, 0 raw votes\n",
		shares, partials)

	// Every member computed the same value.
	for member, v := range res.PerParty {
		if v.Cmp(res.Value) != 0 {
			return fmt.Errorf("member %s diverged: %v", member, v)
		}
	}

	// Commit the tally through the gateway: members enroll once, BankA
	// opens a session, and the tally travels sealed to all five members.
	ca, err := pki.NewCA("consortium-ca")
	if err != nil {
		return err
	}
	members := make([]string, 0, len(votes))
	for m := range votes {
		members = append(members, m)
	}
	keys := make(map[string]*dcrypto.PrivateKey, len(members))
	certs := make(map[string]pki.Certificate, len(members))
	memberKeys := make(map[string]dcrypto.PublicKey, len(members))
	for _, m := range members {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return err
		}
		cert, err := ca.Enroll(m, key.Public())
		if err != nil {
			return err
		}
		keys[m], certs[m], memberKeys[m] = key, cert, key.Public()
	}

	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	cfg := middleware.Config{Stages: []middleware.StageConfig{
		{Name: middleware.StageSession, Params: map[string]string{"ttl": "10m", "idle": "2m"}},
		{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
		{Name: middleware.StageAudit, Params: map[string]string{"observer": "gateway-op"}},
	}}
	env := middleware.Env{
		CAKey:     ca.PublicKey(),
		Directory: middleware.StaticDirectory{"governance": memberKeys},
		Log:       log,
		Revoker:   ca, // revocations push straight into sessions and key epochs
	}
	gw, err := middleware.NewGateway("gov-gw", cfg, env, orderer)
	if err != nil {
		return err
	}
	v := &vault{}
	gw.Bind("governance", v)
	// The gateway serves on the TCP edge, as cmd/gateway does; the members
	// share one client connection.
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

	grant, err := client.OpenSession(ctx, "BankA", certs["BankA"], keys["BankA"], "")
	if err != nil {
		return err
	}
	// Logistics keeps its own session open too — the one the revocation
	// below must kill.
	logGrant, err := client.OpenSession(ctx, "Logistics", certs["Logistics"], keys["Logistics"], "")
	if err != nil {
		return err
	}
	submit := func(who, payload string, grant middleware.SessionGrant) error {
		req := &middleware.Request{
			Channel:      "governance",
			Principal:    who,
			Payload:      []byte(payload),
			SessionToken: grant.Token,
		}
		middleware.MACRequest(req, grant.MacKey)
		_, err := client.Submit(ctx, req)
		return err
	}
	preliminary := "ballot: admit NewMember, yes=" + strconv.Itoa(yes)
	if err := submit("BankA", preliminary, grant); err != nil {
		return err
	}

	// Every member recovers the committed tally from the sealed envelope.
	if len(v.payloads) != 1 {
		return fmt.Errorf("vault holds %d payloads, want 1", len(v.payloads))
	}
	envl, err := middleware.ParseEnvelope(v.payloads[0])
	if err != nil {
		return err
	}
	for _, m := range members {
		plain, err := middleware.OpenEnvelope(envl, m, keys[m])
		if err != nil {
			return fmt.Errorf("member %s cannot open the tally: %w", m, err)
		}
		if string(plain) != preliminary {
			return fmt.Errorf("member %s read %q", m, plain)
		}
	}
	fmt.Printf("committed tally via gateway session: all %d members read %d yes votes\n",
		len(members), yes)

	// Mid-ballot revocation: Logistics' certificate is withdrawn before
	// ratification. The CA's push reaches the gateway at once — the live
	// session dies, and the governance channel re-keys without Logistics.
	ca.Revoke(certs["Logistics"].Serial)
	if err := submit("Logistics", "late objection", logGrant); !errors.Is(err, middleware.ErrSessionRevoked) {
		return fmt.Errorf("revoked member's late submission = %v, want ErrSessionRevoked", err)
	}
	fmt.Println("mid-ballot revocation: Logistics' session evicted, late submission rejected")

	ratified := "ballot ratified: admit NewMember, yes=" + strconv.Itoa(yes)
	if err := submit("BankA", ratified, grant); err != nil {
		return err
	}
	if len(v.payloads) != 2 {
		return fmt.Errorf("vault holds %d payloads, want 2", len(v.payloads))
	}
	final, err := middleware.ParseEnvelope(v.payloads[1])
	if err != nil {
		return err
	}
	if final.Epoch <= envl.Epoch {
		return fmt.Errorf("ratified tally epoch %d did not advance past %d", final.Epoch, envl.Epoch)
	}
	if _, err := middleware.OpenEnvelope(final, "Logistics", keys["Logistics"]); !errors.Is(err, middleware.ErrNotRecipient) {
		return fmt.Errorf("revoked member opened the ratified tally: %v", err)
	}
	for _, m := range members {
		if m == "Logistics" {
			continue
		}
		plain, err := middleware.OpenEnvelope(final, m, keys[m])
		if err != nil || string(plain) != ratified {
			return fmt.Errorf("member %s read %q, %v", m, plain, err)
		}
	}
	fmt.Printf("ratified tally sealed under epoch %d: %d remaining members can open it, the revoked member cannot\n",
		final.Epoch, len(members)-1)

	if err := client.CloseSession(ctx, grant.Token); err != nil {
		return err
	}
	// Closing the revoked member's already-evicted session is a no-op.
	if err := client.CloseSession(ctx, logGrant.Token); err != nil {
		return err
	}

	// The operators saw ciphertext and metadata, never the tally.
	for _, op := range []string{"gateway-op", "orderer-op"} {
		if log.SawAny(op, audit.ClassTxData) {
			return fmt.Errorf("%s observed the ballot result", op)
		}
	}
	fmt.Println("audit log confirms: the tally stayed sealed from gateway and orderer operators")
	return nil
}
