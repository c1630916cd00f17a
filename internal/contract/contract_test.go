package contract

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/tee"
)

// transferContract moves integer balances between accounts.
func transferContract(version string) Contract {
	return Contract{
		Name:    "transfer",
		Version: version,
		Funcs: map[string]Func{
			"move": func(ctx *Context, args [][]byte) ([]byte, error) {
				if len(args) != 3 {
					return nil, errors.New("move: want from, to, amount")
				}
				from, to := string(args[0]), string(args[1])
				amount, err := strconv.Atoi(string(args[2]))
				if err != nil {
					return nil, err
				}
				fromBal, err := readBalance(ctx, from)
				if err != nil {
					return nil, err
				}
				toBal, err := readBalance(ctx, to)
				if err != nil {
					return nil, err
				}
				if fromBal < amount {
					return nil, errors.New("insufficient funds")
				}
				ctx.Put(from, []byte(strconv.Itoa(fromBal-amount)))
				ctx.Put(to, []byte(strconv.Itoa(toBal+amount)))
				return []byte("ok"), nil
			},
		},
	}
}

func readBalance(ctx *Context, account string) (int, error) {
	raw, err := ctx.Get(account)
	if errors.Is(err, ledger.ErrNotFound) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(string(raw))
}

type mapView map[string][]byte

func (v mapView) Get(key string) ([]byte, error) {
	b, ok := v[key]
	if !ok {
		return nil, ledger.ErrNotFound
	}
	return b, nil
}

func TestInvoke(t *testing.T) {
	view := mapView{"alice": []byte("100")}
	ctx := NewContext("trade", "alice", view)
	out, writes, err := transferContract("1").Invoke(ctx, "move", [][]byte{[]byte("alice"), []byte("bob"), []byte("40")})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(out) != "ok" || len(writes) != 2 {
		t.Fatalf("out=%q writes=%d", out, len(writes))
	}
	if string(writes[0].Value) != "60" || string(writes[1].Value) != "40" {
		t.Fatalf("writes = %+v", writes)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	ctx := NewContext("trade", "alice", mapView{})
	if _, _, err := transferContract("1").Invoke(ctx, "nope", nil); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("unknown fn = %v, want ErrUnknownFunction", err)
	}
}

func TestInvokeBusinessError(t *testing.T) {
	ctx := NewContext("trade", "alice", mapView{"alice": []byte("10")})
	_, _, err := transferContract("1").Invoke(ctx, "move", [][]byte{[]byte("alice"), []byte("bob"), []byte("40")})
	if err == nil {
		t.Fatal("insufficient funds must error")
	}
}

func TestRegistrySelectiveInstallation(t *testing.T) {
	log := audit.NewHistory()
	r := NewRegistry(log)
	if err := r.Install("peer-bankA", transferContract("1")); err != nil {
		t.Fatalf("Install: %v", err)
	}
	if !r.Installed("peer-bankA", "transfer") || r.Installed("peer-other", "transfer") {
		t.Fatal("installation boundary wrong")
	}
	// Executing on a node without the contract fails — and that node never
	// observed the logic.
	_, _, err := r.Invoke("peer-other", "transfer", "move", nil, "trade", "x", mapView{})
	if !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("uninstalled Invoke = %v, want ErrNotInstalled", err)
	}
	if !log.Saw("peer-bankA", audit.ClassBusinessLogic, "transfer") {
		t.Fatal("installed node must have observed the logic")
	}
	if log.SawAny("peer-other", audit.ClassBusinessLogic) {
		t.Fatal("uninvolved node must not observe the logic")
	}
}

func TestRegistryInvoke(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Install("peer1", transferContract("1")); err != nil {
		t.Fatalf("Install: %v", err)
	}
	out, writes, err := r.Invoke("peer1", "transfer", "move",
		[][]byte{[]byte("a"), []byte("b"), []byte("5")}, "trade", "a", mapView{"a": []byte("10")})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if string(out) != "ok" || len(writes) != 2 {
		t.Fatalf("unexpected result %q %v", out, writes)
	}
}

func TestRegistryInstallValidation(t *testing.T) {
	r := NewRegistry(nil)
	if err := r.Install("", transferContract("1")); err == nil {
		t.Fatal("empty node must be rejected")
	}
	if err := r.Install("n", Contract{}); err == nil {
		t.Fatal("unnamed contract must be rejected")
	}
}

func TestVersionConsistency(t *testing.T) {
	r := NewRegistry(nil)
	_ = r.Install("p1", transferContract("1"))
	_ = r.Install("p2", transferContract("1"))
	if err := r.CheckVersionConsistency("transfer"); err != nil {
		t.Fatalf("consistent versions = %v", err)
	}
	_ = r.Install("p3", transferContract("2"))
	if err := r.CheckVersionConsistency("transfer"); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("divergent versions = %v, want ErrVersionMismatch", err)
	}
	if got := len(r.NodesWith("transfer")); got != 3 {
		t.Fatalf("NodesWith = %d, want 3", got)
	}
}

func TestPolicyEvaluate(t *testing.T) {
	k1, _ := dcrypto.GenerateKey()
	k2, _ := dcrypto.GenerateKey()
	tx := ledger.Transaction{
		Channel: "trade", Creator: "BankA",
		Timestamp: time.Unix(1700000000, 0).UTC(),
	}
	if err := tx.Endorse("BankA", k1); err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	policy := Policy{Members: []string{"BankA", "SellerCo"}, Threshold: 2}
	if err := policy.Evaluate(tx); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("1 of 2 endorsements = %v, want ErrPolicyUnsatisfied", err)
	}
	if err := tx.Endorse("SellerCo", k2); err != nil {
		t.Fatalf("Endorse: %v", err)
	}
	if err := policy.Evaluate(tx); err != nil {
		t.Fatalf("2 of 2 endorsements = %v", err)
	}
	// Endorsements from non-members do not count.
	k3, _ := dcrypto.GenerateKey()
	tx2 := ledger.Transaction{Channel: "trade", Creator: "X", Timestamp: time.Unix(1, 0)}
	_ = tx2.Endorse("Mallory", k3)
	if err := policy.Evaluate(tx2); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("non-member endorsement = %v, want ErrPolicyUnsatisfied", err)
	}
	if err := (Policy{Members: []string{"A"}}).Evaluate(tx); !errors.Is(err, ErrPolicyUnsatisfied) {
		t.Fatalf("zero threshold = %v, want ErrPolicyUnsatisfied", err)
	}
}

func TestOffChainEngine(t *testing.T) {
	log := audit.NewHistory()
	e := NewOffChainEngine(log)
	if err := e.Deploy("BankA", transferContract("1")); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	out, writes, err := e.Execute("BankA", "transfer", "move",
		[][]byte{[]byte("a"), []byte("b"), []byte("3")}, "trade", mapView{"a": []byte("5")})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if string(out) != "ok" || len(writes) != 2 {
		t.Fatalf("unexpected result %q %v", out, writes)
	}
	// Logic visible only to deploying org.
	if !log.Saw("BankA", audit.ClassBusinessLogic, "transfer") {
		t.Fatal("deploying org must observe the logic")
	}
	if log.SawAny("SellerCo", audit.ClassBusinessLogic) {
		t.Fatal("other orgs must not observe the logic")
	}
	// Execution in an org without the logic fails.
	if _, _, err := e.Execute("SellerCo", "transfer", "move", nil, "trade", mapView{}); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("missing logic = %v, want ErrNotInstalled", err)
	}
}

func TestOffChainEngineDrift(t *testing.T) {
	e := NewOffChainEngine(nil)
	_ = e.Deploy("BankA", transferContract("1"))
	_ = e.Deploy("SellerCo", transferContract("1"))
	if err := e.DetectDrift("transfer"); err != nil {
		t.Fatalf("no drift = %v", err)
	}
	_ = e.Deploy("BuyerInc", transferContract("2"))
	if err := e.DetectDrift("transfer"); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("drift = %v, want ErrVersionMismatch", err)
	}
	if got := len(e.Orgs("transfer")); got != 3 {
		t.Fatalf("Orgs = %d, want 3", got)
	}
}

func TestOffChainEngineDeployValidation(t *testing.T) {
	e := NewOffChainEngine(nil)
	if err := e.Deploy("", transferContract("1")); err == nil {
		t.Fatal("empty org must be rejected")
	}
}

func TestLedgerShim(t *testing.T) {
	shim := LedgerShim()
	ctx := NewContext("trade", "org", mapView{"k": []byte("v")})
	out, _, err := shim.Invoke(ctx, "read", [][]byte{[]byte("k")})
	if err != nil || string(out) != "v" {
		t.Fatalf("shim read = %q, %v", out, err)
	}
	ctx2 := NewContext("trade", "org", mapView{})
	_, writes, err := shim.Invoke(ctx2, "write", [][]byte{[]byte("k"), []byte("v2")})
	if err != nil || len(writes) != 1 {
		t.Fatalf("shim write = %v, %v", writes, err)
	}
	if _, _, err := shim.Invoke(NewContext("t", "o", nil), "read", nil); err == nil {
		t.Fatal("shim read arity must be enforced")
	}
}

func TestContextDelAndWritesCopy(t *testing.T) {
	ctx := NewContext("t", "o", mapView{})
	ctx.Put("a", []byte("1"))
	ctx.Del("b")
	w := ctx.Writes()
	if len(w) != 2 || !w[1].Delete {
		t.Fatalf("Writes = %+v", w)
	}
	w[0].Key = "mutated"
	if ctx.Writes()[0].Key != "a" {
		t.Fatal("Writes must return a copy")
	}
}

func TestEnclaveExecution(t *testing.T) {
	m, err := tee.NewManufacturer()
	if err != nil {
		t.Fatalf("NewManufacturer: %v", err)
	}
	enclave, err := m.Provision()
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	measurement, err := WrapInEnclave(enclave, transferContract("1"))
	if err != nil {
		t.Fatalf("WrapInEnclave: %v", err)
	}
	state := map[string][]byte{"a": []byte("50")}
	out, writes, att, err := InvokeInEnclave(enclave, "move",
		[][]byte{[]byte("a"), []byte("b"), []byte("20")}, state)
	if err != nil {
		t.Fatalf("InvokeInEnclave: %v", err)
	}
	if string(out) != "ok" || len(writes) != 2 {
		t.Fatalf("enclave result %q %v", out, writes)
	}
	if err := tee.VerifyAttestation(att, m.PublicKey(), measurement); err != nil {
		t.Fatalf("VerifyAttestation: %v", err)
	}
}

func TestEnclaveExecutionBusinessError(t *testing.T) {
	m, _ := tee.NewManufacturer()
	enclave, _ := m.Provision()
	if _, err := WrapInEnclave(enclave, transferContract("1")); err != nil {
		t.Fatalf("WrapInEnclave: %v", err)
	}
	_, _, _, err := InvokeInEnclave(enclave, "move",
		[][]byte{[]byte("a"), []byte("b"), []byte("20")}, map[string][]byte{"a": []byte("5")})
	if err == nil {
		t.Fatal("enclave must propagate business errors")
	}
}
