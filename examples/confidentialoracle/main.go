// Confidential oracle through the gateway: two banks settle an FX deal
// whose conversion is computed inside a TEE (§3.3 of the paper). Instead
// of hand-verifying enclave quotes, the pipeline's attest stage enforces
// the policy: only payloads produced by the audited rate program, running
// in a manufacturer-endorsed enclave, reach the ledger — and the encrypt
// stage then seals them so the operators never see the amounts.
package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
	"dltprivacy/internal/tee"
)

// recorder captures committed transactions for the read-back step.
type recorder struct{ txs []ledger.Transaction }

func (r *recorder) Name() string { return "recorder" }

func (r *recorder) Commit(b ledger.Block) error {
	r.txs = append(r.txs, b.Txs...)
	return nil
}

// rateProgram is the audited FX conversion logic: "USD=<cents>" in,
// settlement statement out, at a pinned rate. Its measurement is what the
// gateway's attestation policy trusts.
var rateProgram = tee.Program{
	Name:    "fx-rate",
	Version: "1.52",
	Run: func(input, state []byte) ([]byte, []byte, error) {
		usdStr, ok := strings.CutPrefix(string(input), "USD=")
		if !ok {
			return nil, state, errors.New("want USD=<cents>")
		}
		usd, err := strconv.ParseInt(usdStr, 10, 64)
		if err != nil {
			return nil, state, err
		}
		aud := usd * 152 / 100
		out := fmt.Sprintf("settle: %d USD cents -> %d AUD cents @ USD/AUD=1.52", usd, aud)
		return []byte(out), state, nil
	},
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "confidentialoracle:", err)
		os.Exit(1)
	}
}

func run() error {
	// 1. PKI for the two banks; a TEE manufacturer provisions the enclave
	// that will run the rate program.
	ca, err := pki.NewCA("consortium-ca")
	if err != nil {
		return err
	}
	banks := []string{"BankA", "BankB"}
	keys := make(map[string]*dcrypto.PrivateKey, len(banks))
	certs := make(map[string]pki.Certificate, len(banks))
	for _, b := range banks {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			return err
		}
		cert, err := ca.Enroll(b, key.Public())
		if err != nil {
			return err
		}
		keys[b], certs[b] = key, cert
	}
	man, err := tee.NewManufacturer()
	if err != nil {
		return err
	}
	enclave, err := man.Provision()
	if err != nil {
		return err
	}
	if err := enclave.Load(rateProgram); err != nil {
		return err
	}

	// 2. The pipeline: the attest stage pins the manufacturer key and the
	// rate program's measurement, with output binding — the submitted
	// payload must be exactly what the enclave produced.
	log := audit.NewLog()
	orderer := ordering.New("orderer-op", ordering.VisibilityEnvelope, ordering.WithAuditLog(log))
	measurement := rateProgram.Measurement()
	cfg := middleware.Config{
		Stages: []middleware.StageConfig{
			{Name: middleware.StageSession, Params: map[string]string{"ttl": "10m"}},
			{Name: middleware.StageAttest, Params: map[string]string{"mode": "tee", "bind": "output"}},
			{Name: middleware.StageEncrypt, Params: map[string]string{"keyttl": "5m"}},
			{Name: middleware.StageAudit, Params: map[string]string{"observer": "gateway-op"}},
		},
	}
	env := middleware.Env{
		CAKey: ca.PublicKey(),
		Directory: middleware.StaticDirectory{"fx-settle": {
			"BankA": keys["BankA"].Public(),
			"BankB": keys["BankB"].Public(),
		}},
		Log:         log,
		Attestation: &middleware.AttestationPolicy{Manufacturer: man.PublicKey(), Measurement: measurement},
	}
	gw, err := middleware.NewGateway("gw-fx", cfg, env, orderer)
	if err != nil {
		return err
	}
	rec := &recorder{}
	gw.Bind("fx-settle", rec)
	// The gateway serves on the TCP edge, as cmd/gateway does, and BankA
	// reaches it over one connection.
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

	// 3. BankA runs the conversion in the enclave and submits the output
	// with its attestation over a gateway session.
	grant, err := client.OpenSession(ctx, "BankA", certs["BankA"], keys["BankA"], "")
	if err != nil {
		return err
	}
	output, att, err := enclave.Execute([]byte("USD=100000000"))
	if err != nil {
		return err
	}
	req := &middleware.Request{
		Channel:      "fx-settle",
		Principal:    "BankA",
		Payload:      output,
		SessionToken: grant.Token,
	}
	if err := middleware.AttachAttestation(req, att); err != nil {
		return err
	}
	middleware.MACRequest(req, grant.MacKey)
	if _, err := client.Submit(ctx, req); err != nil {
		return err
	}
	fmt.Println("settlement accepted: attestation verified by the attest stage")

	// 4. A payload the enclave did not produce is rejected, even with a
	// genuine attestation attached: output binding ties quote to bytes.
	forged := &middleware.Request{
		Channel:      "fx-settle",
		Principal:    "BankA",
		Payload:      []byte("settle: 100000000 USD cents -> 1 AUD cent @ USD/AUD=0"),
		SessionToken: grant.Token,
	}
	if err := middleware.AttachAttestation(forged, att); err != nil {
		return err
	}
	middleware.MACRequest(forged, grant.MacKey)
	if _, err := client.Submit(ctx, forged); !errors.Is(err, middleware.ErrAttestationRejected) {
		return fmt.Errorf("tampered settlement accepted: %v", err)
	}
	fmt.Println("rejected: payload differs from the attested enclave output")

	// 5. A different program — same manufacturer, wrong measurement — is
	// rejected too: the policy trusts the audited rate logic, not the TEE
	// vendor alone.
	rogue, err := man.Provision()
	if err != nil {
		return err
	}
	if err := rogue.Load(tee.Program{
		Name:    "fx-rate-rigged",
		Version: "1.0",
		Run: func(input, state []byte) ([]byte, []byte, error) {
			return []byte("settle: whatever BankA wants"), state, nil
		},
	}); err != nil {
		return err
	}
	rogueOut, rogueAtt, err := rogue.Execute([]byte("USD=100000000"))
	if err != nil {
		return err
	}
	rigged := &middleware.Request{
		Channel:      "fx-settle",
		Principal:    "BankA",
		Payload:      rogueOut,
		SessionToken: grant.Token,
	}
	if err := middleware.AttachAttestation(rigged, rogueAtt); err != nil {
		return err
	}
	middleware.MACRequest(rigged, grant.MacKey)
	if _, err := client.Submit(ctx, rigged); !errors.Is(err, middleware.ErrAttestationRejected) {
		return fmt.Errorf("unaudited program output accepted: %v", err)
	}
	fmt.Println("rejected: enclave running an unaudited program (measurement mismatch)")

	// 6. BankB reads the sealed settlement; the ledger carries only the
	// compact attestation note.
	if len(rec.txs) != 1 {
		return fmt.Errorf("want 1 committed settlement, got %d", len(rec.txs))
	}
	tx := rec.txs[0]
	envl, err := middleware.ParseEnvelope(tx.Payload)
	if err != nil {
		return err
	}
	plain, err := middleware.OpenEnvelope(envl, "BankB", keys["BankB"])
	if err != nil {
		return err
	}
	fmt.Printf("BankB reads the sealed settlement: %s\n", plain)
	fmt.Printf("ledger records only the attestation note: %s\n", tx.Meta[middleware.MetaAttest])

	// 7. Leakage accounting: no operator saw amounts or counterparties.
	for _, op := range []string{"gateway-op", "orderer-op"} {
		if log.SawAny(op, audit.ClassTxData) {
			return fmt.Errorf("%s observed transaction data", op)
		}
	}
	fmt.Println("audit log confirms: amounts stayed hidden from the gateway and ordering operators")
	return nil
}
