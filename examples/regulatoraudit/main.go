// Regulator audit through the gateway: member banks report confidential
// exposures under anonymous credentials, and the pipeline aggregates the
// encrypted reports homomorphically before anything reaches the ledger.
// The anoncred stage replaces certificate authentication — the gateway learns
// "a credentialed member" plus a scope-exclusive pseudonym, never which
// bank — and the terminal aggregate stage orders only the Paillier sum,
// so the regulator decrypts the sector total without seeing any single
// exposure. Auditable anonymity (§2.3): pseudonyms are stable inside the
// audit scope for accountability, unlinkable outside it.
package main

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"os"

	"dltprivacy/internal/anoncred"
	"dltprivacy/internal/audit"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/paillier"
)

// recorder captures the released aggregate transaction.
type recorder struct{ txs []ledger.Transaction }

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Commit(b ledger.Block) error {
	r.txs = append(r.txs, b.Txs...)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "regulatoraudit:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. The consortium issuer registers the membership attribute set;
	// each bank's wallet draws one-show tokens. The regulator generates
	// the Paillier collection key — only the regulator can decrypt, and
	// only the aggregate ever reaches it.
	attrs := []string{"role=member"}
	issuer := anoncred.NewIssuer("consortium-ca")
	credKey, err := issuer.RegisterAttributeSet(attrs)
	if err != nil {
		return err
	}
	wallets := make(map[string]*anoncred.Wallet, 2)
	for _, bank := range []string{"AlphaBank", "BetaBank"} {
		w, err := anoncred.NewWallet()
		if err != nil {
			return err
		}
		if err := w.RequestTokens(issuer, attrs, 4); err != nil {
			return err
		}
		wallets[bank] = w
	}
	regulatorKey, err := paillier.GenerateKey(512)
	if err != nil {
		return err
	}
	collectKey := &regulatorKey.PublicKey

	// 2. The pipeline, declaratively: anoncred authenticates in place of
	// certificates, and aggregate terminates the chain — individual
	// reports are acknowledged, held, and combined; only the encrypted
	// sum is ordered.
	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageAnonCred, Params: map[string]string{
				"mode": "present", "attrs": "role=member", "scope": "audit-2026",
			}},
			{Name: middleware.StageAudit, Params: map[string]string{"observer": "regulator-op"}},
			{Name: middleware.StageAggregate, Params: map[string]string{"mode": "paillier", "size": "3"}},
		},
	}
	env := middleware.Env{AnonCredKey: credKey, Aggregator: collectKey, Log: log}
	gw, err := middleware.NewGateway("gw-audit", cfg, env, orderer)
	if err != nil {
		return err
	}
	rec := &recorder{}
	gw.Bind("exposure-reports", rec)
	// The gateway serves on the TCP edge, as cmd/gateway does; the reports
	// arrive over one client connection that names no bank.
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

	// 3. Three reports: AlphaBank files twice (a correction cycle),
	// BetaBank once. Each report is the exposure encrypted to the
	// regulator, presented under a fresh one-show token.
	reports := []struct {
		bank     string
		exposure int64
	}{
		{"AlphaBank", 250_000},
		{"BetaBank", 410_000},
		{"AlphaBank", 90_000},
	}
	nyms := make([]string, 0, len(reports))
	var replay *middleware.Request
	for i, rep := range reports {
		payload, err := middleware.EncodeAggregand(collectKey, big.NewInt(rep.exposure))
		if err != nil {
			return err
		}
		req := &middleware.Request{Channel: "exposure-reports", Payload: payload}
		nym, err := middleware.AttachPresentation(req, wallets[rep.bank], attrs, "audit-2026")
		if err != nil {
			return err
		}
		nyms = append(nyms, nym)
		if i == 0 {
			// Keep a copy of the first wire presentation for the replay
			// check below.
			replay = &middleware.Request{
				Channel:   req.Channel,
				Principal: req.Principal,
				Payload:   req.Payload,
				Meta:      map[string]string{middleware.MetaAnonCred: req.Meta[middleware.MetaAnonCred]},
			}
		}
		if _, err := client.Submit(ctx, req); err != nil {
			return fmt.Errorf("report %d: %w", i+1, err)
		}
		fmt.Printf("report %d accepted under pseudonym %s…\n", i+1, nym[:12])
	}

	// 4. Accountability inside the scope: the regulator can tell the two
	// AlphaBank filings came from the same member — without knowing it is
	// AlphaBank. Unlinkability outside it: the same wallet presenting in
	// another scope yields an unrelated pseudonym.
	if nyms[0] != nyms[2] {
		return errors.New("same-scope pseudonyms diverged")
	}
	if nyms[0] == nyms[1] {
		return errors.New("distinct members share a pseudonym")
	}
	fmt.Println("regulator links reports 1 and 3 to one member — without learning which bank")
	other := &middleware.Request{Channel: "elsewhere"}
	crossNym, err := middleware.AttachPresentation(other, wallets["AlphaBank"], attrs, "channel-trades")
	if err != nil {
		return err
	}
	if crossNym == nyms[0] {
		return errors.New("cross-scope pseudonyms must differ")
	}
	fmt.Println("the same wallet is unlinkable outside the audit scope")

	// 5. One-show enforcement: replaying a spent presentation fails.
	if _, err := client.Submit(ctx, replay); !errors.Is(err, middleware.ErrCredentialRejected) {
		return fmt.Errorf("replayed presentation accepted: %v", err)
	}
	fmt.Println("rejected: replayed presentation (one-show token already spent)")

	// A report with no credential at all never enters the pool.
	anon, err := middleware.EncodeAggregand(collectKey, big.NewInt(1))
	if err != nil {
		return err
	}
	if _, err := client.Submit(ctx,
		&middleware.Request{Channel: "exposure-reports", Principal: "nobody", Payload: anon},
	); !errors.Is(err, middleware.ErrCredentialRequired) {
		return fmt.Errorf("credential-less report accepted: %v", err)
	}
	fmt.Println("rejected: report without a credential presentation")

	// 6. The third accepted report filled the group: exactly one
	// transaction was ordered, creator "aggregated", no pseudonyms.
	if len(rec.txs) != 1 {
		return fmt.Errorf("want 1 aggregate transaction, got %d", len(rec.txs))
	}
	tx := rec.txs[0]
	if tx.Creator != middleware.AggregatePrincipal {
		return fmt.Errorf("aggregate creator %q", tx.Creator)
	}
	if _, leaked := tx.Meta[middleware.MetaNym]; leaked {
		return errors.New("contributor pseudonym leaked onto the aggregate")
	}
	total, err := middleware.DecryptAggregate(regulatorKey, tx.Payload)
	if err != nil {
		return err
	}
	if total.Int64() != 750_000 {
		return fmt.Errorf("aggregate total %s, want 750000", total)
	}
	fmt.Printf("ledger holds one tx (%s): regulator decrypts the sector total %s\n",
		tx.Meta[middleware.MetaAggregate], total)
	fmt.Println("no individual exposure was ever decryptable: reports were combined in ciphertext")
	return nil
}
