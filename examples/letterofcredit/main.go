// Letter of credit (§4 of the paper) through the gateway: the buyer's
// sufficient-funds proof is no longer hand-verified by application code —
// a zkproof stage in the declarative pipeline checks it before the
// application is sealed for the channel members. One Config string
// expresses the whole confidentiality posture: session-amortized authentication,
// range-proof-gated applications, envelope encryption, leakage accounting.
package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"os"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// recorder captures committed transactions so the parties can read the
// sealed applications back off the ledger.
type recorder struct{ txs []ledger.Transaction }

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Commit(b ledger.Block) error {
	r.txs = append(r.txs, b.Txs...)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "letterofcredit:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. Consortium PKI: bank, buyer, and seller enroll once.
	ca, err := pki.NewCA("consortium-ca")
	if err != nil {
		return err
	}
	parties := []string{"FirstTradeBank", "OutbackImports", "PacificMills"}
	keys := make(map[string]*dcrypto.PrivateKey, len(parties))
	certs := make(map[string]pki.Certificate, len(parties))
	for _, p := range parties {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return err
		}
		cert, err := ca.Enroll(p, key.Public())
		if err != nil {
			return err
		}
		keys[p], certs[p] = key, cert
	}

	// 2. The declarative pipeline. The zkproof stage gates only the
	// application channel: every submission on loc-apply must carry a
	// valid sufficient-funds claim, verified against the submitter before
	// the encrypt stage seals the payload. Lifecycle traffic on loc-trade
	// passes the stage untouched.
	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: map[string]string{"ttl": "10m"}},
			{Name: middleware.StageZKProof, Params: map[string]string{"mode": "range", "channel": "loc-apply"}},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
			{Name: middleware.StageAudit, Params: map[string]string{"observer": "gateway-op"}},
		},
	}
	members := map[string]dcrypto.PublicKey{
		"FirstTradeBank": keys["FirstTradeBank"].Public(),
		"OutbackImports": keys["OutbackImports"].Public(),
		"PacificMills":   keys["PacificMills"].Public(),
	}
	env := middleware.Env{
		CAKey:     ca.PublicKey(),
		Directory: middleware.StaticDirectory{"loc-apply": members, "loc-trade": members},
		Log:       log,
	}
	gw, err := middleware.NewGateway("gw-loc", cfg, env, orderer)
	if err != nil {
		return err
	}
	rec := &recorder{}
	gw.Bind("loc-apply", rec)
	gw.Bind("loc-trade", rec)
	// The gateway serves on the TCP edge, as cmd/gateway does; the parties
	// share one client connection, as loadgen's principals do.
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

	// 3. Every party opens one session; full PKI verification is paid
	// once per party, not once per lifecycle step.
	grants := make(map[string]middleware.SessionGrant, len(parties))
	for _, p := range parties {
		grant, err := client.OpenSession(ctx, p, certs[p], keys[p], "")
		if err != nil {
			return err
		}
		grants[p] = grant
	}

	// 4. The buyer applies for a letter covering 1,200,000 cents. The
	// attached claim proves balance >= amount without revealing the
	// balance; the proof transcript is bound to (channel, principal), so
	// it cannot be replayed by anyone else.
	amount := big.NewInt(1_200_000)
	balance := big.NewInt(5_000_000) // never leaves the buyer's process
	apply := &middleware.Request{
		Channel:      "loc-apply",
		Principal:    "OutbackImports",
		Payload:      []byte("LoC application: 2000 bales of wool for 1200000 cents, beneficiary PacificMills"),
		SessionToken: grants["OutbackImports"].Token,
	}
	if _, err := middleware.AttachSufficientFundsProof(apply, balance, amount); err != nil {
		return err
	}
	middleware.MACRequest(apply, grants["OutbackImports"].MacKey)
	if _, err := client.Submit(ctx, apply); err != nil {
		return err
	}
	fmt.Println("applied: sufficient-funds proof verified by the zkproof stage")

	// An application without a proof never reaches the ledger.
	bare := &middleware.Request{
		Channel:      "loc-apply",
		Principal:    "OutbackImports",
		Payload:      []byte("LoC application with no proof"),
		SessionToken: grants["OutbackImports"].Token,
	}
	middleware.MACRequest(bare, grants["OutbackImports"].MacKey)
	if _, err := client.Submit(ctx, bare); !errors.Is(err, middleware.ErrProofRequired) {
		return fmt.Errorf("proof-less application accepted: %v", err)
	}
	fmt.Println("rejected: application without a funds proof")

	// 5. The lifecycle runs as session submissions on the trade channel.
	for _, step := range []struct{ party, event string }{
		{"FirstTradeBank", "issue"},
		{"PacificMills", "ship BL-2026-0612"},
		{"PacificMills", "present documents"},
		{"FirstTradeBank", "pay 1200000 cents"},
	} {
		req := &middleware.Request{
			Channel:      "loc-trade",
			Principal:    step.party,
			Payload:      []byte("loc-2026-0612: " + step.event),
			SessionToken: grants[step.party].Token,
		}
		middleware.MACRequest(req, grants[step.party].MacKey)
		if _, err := client.Submit(ctx, req); err != nil {
			return fmt.Errorf("%s: %w", step.event, err)
		}
		fmt.Println("completed:", step.event)
	}

	// 6. The bank reads the sealed application back. The ledger carries
	// the verification note — commitment hash, not the balance.
	if len(rec.txs) == 0 {
		return errors.New("no transactions committed")
	}
	appTx := rec.txs[0]
	envl, err := middleware.ParseEnvelope(appTx.Payload)
	if err != nil {
		return err
	}
	plain, err := middleware.OpenEnvelope(envl, "FirstTradeBank", keys["FirstTradeBank"])
	if err != nil {
		return err
	}
	fmt.Printf("bank reads the sealed application: %s\n", plain)
	fmt.Printf("ledger records only the proof note: %s\n", appTx.Meta[middleware.MetaZKProof])

	// 7. Leakage accounting: neither operator saw application content,
	// and the buyer's balance existed only inside the buyer's process.
	for _, op := range []string{"gateway-op", "orderer-op"} {
		if log.SawAny(op, audit.ClassTxData) {
			return fmt.Errorf("%s observed transaction data", op)
		}
	}
	fmt.Println("audit log confirms: no operator saw application data, and the balance never left the buyer")
	return nil
}
