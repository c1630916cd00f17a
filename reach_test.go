package dltprivacy_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed is the allow-list of non-test functions under internal/
// that no binary of the module or of benchmark/ links, grouped by why they
// stay. An entry is "dir.Func" or "dir.Type.Method", dir relative to
// internal/ ("platform/corda.Network.VerifyBackchain"), the pointer of a
// receiver dropped. The list may only shrink: an entry that is gone, or that
// a binary now reaches, fails the test. A function whose only caller is a
// test stays here when it reproduces a mechanism of the paper, or when an
// open ROADMAP item owns its removal; code a test needs for any other reason
// belongs in a _test.go file, which can only serve the tests of its own
// package. What tests of other packages call is listed apart, to be
// rewritten away.
var unreachedAllowed = map[string][]string{
	"reproduces a paper mechanism that only its tests run": {
		// Corda: a backchain is verified against the notary's key (§3.1).
		"platform/corda.Network.VerifyBackchain", "platform/corda.Network.verifyOwnerSig",
		"platform/corda.Notary.PublicKey",
		// Fabric: channel membership changes and cross-channel receipts.
		"platform/fabric.Network.JoinChannel", "platform/fabric.Network.PublishReceipt",
		"platform/fabric.Network.VerifyReceipt", "platform/fabric.Network.sharedLedger",
		"platform/fabric.receiptKey",
		// Quorum: private contracts and the divergence of private states.
		"platform/quorum.Network.DeployPrivateContract", "platform/quorum.Network.InvokePrivateContract",
		"platform/quorum.Network.CompareStates", "platform/quorum.Network.ContractDeployedOn",
		"platform/quorum.Network.contracts", "platform/quorum.privateStateView.Get",
		// Contracts run in an enclave, on an off-chain engine, installed
		// only on involved nodes.
		"contract.WrapInEnclave", "contract.InvokeInEnclave", "contract.snapshotView.Get",
		"contract.OffChainEngine.DetectDrift", "contract.Registry.NodesWith",
		"contract.Registry.Versions", "contract.Registry.CheckVersionConsistency",
		// Trusted execution: confidential execution and sealed state, whose
		// sealing key is derived from the enclave key.
		"tee.Enclave.ExecuteConfidential", "tee.Enclave.Seal", "tee.Enclave.Unseal",
		"tee.Enclave.sealingKey", "dcrypto.PrivateKey.D",
		"guide.TEESubstrateDemo",
		// Zero-knowledge proofs beyond the range proofs the zkproof stage
		// verifies.
		"zkp.SchnorrProve", "zkp.SchnorrVerify", "zkp.EqDLProve", "zkp.EqDLVerify",
		"zkp.ProveOpening", "zkp.VerifyOpening", "zkp.ProveEqualCommitments", "zkp.VerifyEqualCommitments",
		// Homomorphic computation and the MPC model.
		"paillier.PublicKey.AddPlain", "paillier.PublicKey.MulScalar", "paillier.PublicKey.Sub",
		"paillier.PublicKey.Rerandomize",
		"mpc.Reconstruct", "mpc.SecureMean", "mpc.ObservedRawInput",
		// The ledger's block chain, pruning and verification; Merkle tear-offs;
		// off-chain data anchored by hash and deleted; one-time certificates.
		"ledger.Ledger.CutBlock", "ledger.Ledger.Block", "ledger.Ledger.Archived",
		"ledger.Ledger.LiveBlocks", "ledger.Ledger.Prune", "ledger.Ledger.VerifyChain",
		"merkle.Tree.Prove", "merkle.VerifyProof",
		"offchain.Store.AnchorOf", "offchain.Store.Deleted",
		"pki.CA.IssueOneTime",
	},
	"the client half of a stage the gateway serves; no binary here is that client": {
		// A client of zkproof attaches a plain range proof.
		"middleware.AttachRangeProof",
	},
	"the leakage log's queries, through which the tests of every package check who saw what": {
		"audit.Log.Saw", "audit.Log.ItemsSeen", "audit.Log.Observers",
	},
	"fault seams and the chain verifier that middleware's chaos tests drive; ChainVerifier is item 1(b)'s": {
		"ordering.ReplicatedShard.Kill", "ordering.ReplicatedShard.Revive", "ordering.ShardedBackend.Migrations",
		"ordering.ChainVerifier.Deliver", "ordering.ChainVerifier.Txs", "ordering.ChainVerifier.Violations",
		"ordering.ChainVerifier.bad", "ordering.ChainVerifier.err", "ledger.ContentDataHash",
	},
	"ROADMAP item 26: the session opens and closes the wire path does not use": {
		"middleware.SessionManager.Open", "middleware.SessionManager.close", "middleware.SessionManager.stats",
	},
	"ROADMAP item 18: the uncached envelope seal and its encoder": {
		"middleware.SealEnvelope", "middleware.EncodeEnvelope",
	},
	"accessors tests of other packages assert through, to be rewritten away": {
		"anoncred.ShowRegistry.Shown", "pki.WithClock",
		"ledger.Ledger.Height", "ledger.Ledger.GetByPrefix",
		"platform/fabric.Network.OrdererOperators", "platform/fabric.Network.QueryPrefix",
		"platform/quorum.Network.Chain",
	},
}

// sentinelSymbols must be among what the linker reports reached, so that a
// change in -dumpdep's format fails the gate instead of passing it vacuously.
var sentinelSymbols = []string{"main.main", modulePath + "/internal/middleware.Gateway.AppendWire"}

// TestReachedMeansKept fails on a non-test function under internal/ that no
// binary reaches and that is not allow-listed, and on an allow-list entry
// that is gone or now reached. "Reached" is the linker's word: every main
// package of the module and of benchmark/ is linked with -dumpdep, inlining
// off so that a function inlined everywhere still reads as reached, and a
// function counts when some reached symbol refers to it. Methods the linker
// keeps for an interface or for reflection count as reached, as they are.
func TestReachedMeansKept(t *testing.T) {
	reached := linkedFunctions(t)
	decls, err := internalFuncDecls(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]string) // entry -> group
	for group, entries := range unreachedAllowed {
		for _, e := range entries {
			if prev, dup := allowed[e]; dup {
				t.Errorf("%s is listed under both %q and %q", e, prev, group)
			}
			allowed[e] = group
		}
	}
	keys := make([]string, 0, len(decls))
	for k := range decls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		entry := strings.TrimPrefix(k, modulePath+"/internal/")
		if !reached[k] && allowed[entry] == "" {
			t.Errorf("%s: %s is reached by no binary: delete it, move it into a test file, "+
				"or allow-list it under its reason", decls[k], entry)
		}
	}
	entries := make([]string, 0, len(allowed))
	for e := range allowed {
		entries = append(entries, e)
	}
	sort.Strings(entries)
	for _, e := range entries {
		k := modulePath + "/internal/" + e
		switch {
		case decls[k] == "":
			t.Errorf("allow-list entry %s names no function under internal/: take it off", e)
		case reached[k]:
			t.Errorf("allow-list entry %s is reached by a binary now: take it off", e)
		}
	}
}

// TestReachedMeansKeptRefusesUnparsedOutput pins the gate's guard: linker
// output in which the sentinels cannot be found is an error, never an empty
// reached set that every allow-list check would then trivially pass.
func TestReachedMeansKeptRefusesUnparsedOutput(t *testing.T) {
	appendWire := "dltprivacy/internal/middleware.(*Gateway).AppendWire"
	for name, out := range map[string]string{
		"empty":              "",
		"no AppendWire":      "runtime.main -> main.main\n",
		"no main.main":       "main.serve -> " + appendWire + "\n",
		"another arrow":      "runtime.main => main.main\nmain.serve => " + appendWire + "\n",
		"sentinels as roots": "main.main -> runtime.x\n" + appendWire + " -> runtime.y\n",
	} {
		if _, err := parseDumpdep(out); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	got, err := parseDumpdep("# dltprivacy/cmd/gateway\n_ -> _rt0_amd64_linux\nruntime.main -> main.main <ABIInternal>\n" +
		"main.serve -> " + appendWire + "\n" +
		"main.serve -> dltprivacy/internal/ordering.(*shardSet[go.shape.string]).get\n" +
		"main.serve -> dltprivacy/internal/middleware.init.2\n" +
		`main.serve -> go:string."a -> main.x"` + "\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"main.main", "dltprivacy/internal/middleware.Gateway.AppendWire",
		"dltprivacy/internal/ordering.shardSet.get", "dltprivacy/internal/middleware.init",
	} {
		if !got[want] {
			t.Errorf("%s not among the reached symbols %v", want, got)
		}
	}
	if got["main.x"] {
		t.Error("an arrow inside a string symbol was read as an edge")
	}
}

// linkedFunctions links every main package of the module and of benchmark/
// with the linker's -dumpdep and returns the reached symbols, normalised
// as parseDumpdep does.
func linkedFunctions(t *testing.T) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	mains := strings.Fields(string(out))
	if len(mains) == 0 {
		t.Fatal("go list found no main package")
	}
	bin := t.TempDir()
	flags := []string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep"}
	var dump strings.Builder
	for _, build := range []struct {
		dir  string
		args []string
	}{
		{".", append(append(flags, "-o", bin+string(filepath.Separator)), mains...)},
		{"benchmark", append(flags, "-o", filepath.Join(bin, "benchmark.bin"), ".")},
	} {
		cmd := exec.Command("go", build.args...)
		cmd.Dir = build.dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s in %s: %v\n%s", strings.Join(build.args, " "), build.dir, err, out)
		}
		dump.Write(out)
	}
	reached, err := parseDumpdep(dump.String())
	if err != nil {
		t.Fatal(err)
	}
	return reached
}

// parseDumpdep reads the linker's "from -> to" lines and returns every
// target, with its " <attribute>" suffix and generic "[...]" arguments
// stripped, the pointer of a method's receiver dropped and a numbered init
// function named init: "pkg.(*T[go.shape.int]).M <ABIInternal>" reads
// "pkg.T.M". Targets are what the linker marks reachable; the line's first
// arrow splits it, since a string symbol on the right may hold another. It
// fails unless every sentinel symbol is among the targets.
func parseDumpdep(out string) (map[string]bool, error) {
	reached := make(map[string]bool)
	for _, line := range strings.Split(out, "\n") {
		if _, to, ok := strings.Cut(line, " -> "); ok {
			reached[normalizeSymbol(to)] = true
		}
	}
	for _, s := range sentinelSymbols {
		if !reached[s] {
			return nil, fmt.Errorf("-dumpdep output names no reached %s: its format is not the one this test parses", s)
		}
	}
	return reached, nil
}

func normalizeSymbol(sym string) string {
	if i := strings.Index(sym, " <"); i >= 0 && strings.HasSuffix(sym, ">") {
		sym = sym[:i]
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = strings.NewReplacer("(*", "", ")", "").Replace(b.String())
	if i := strings.LastIndex(sym, ".init."); i >= 0 && strings.Trim(sym[i+len(".init."):], "0123456789") == "" {
		sym = sym[:i+len(".init")]
	}
	return sym
}

// internalFuncDecls returns every function and method declared in the
// non-test files under root/internal that build for this platform, keyed
// as normalizeSymbol names its symbol ("dltprivacy/internal/x.T.M"), with
// its position and length.
func internalFuncDecls(root string) (map[string]string, error) {
	fset := token.NewFileSet()
	decls := make(map[string]string)
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), filepath.Base(p)); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		pkg := modulePath + "/" + filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = receiverName(fd.Recv.List[0].Type) + "." + name
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			decls[pkg+"."+name] = fmt.Sprintf("%s:%d (%d lines)", filepath.ToSlash(p), start.Line, end.Line-start.Line+1)
		}
		return nil
	})
	return decls, err
}

// receiverName is the base type name of a receiver: T for T, *T, T[K] and
// *T[K, V].
func receiverName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
