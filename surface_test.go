package dltprivacy_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// servingPackages are the packages whose exported surface
// TestExportedMeansUsed holds to what something outside them uses.
var servingPackages = []string{"internal/middleware", "internal/netedge", "internal/ordering"}

// benchmarkCalls names the allow-list group of shims the benchmark module
// compiles against. Its entries are checked the other way round: each must
// be declared and referenced by a benchmark/*.go file.
const benchmarkCalls = "the benchmark calls it"

// unusedExports is the allow-list of exported names of the serving packages
// that no non-test file outside their package references, grouped by why
// they stay. An entry is "pkg.Name" or "pkg.Type.Method" ("pkg.Type.Field"
// in the benchmark group). The list may only shrink: an entry that is gone,
// or that something outside its package now references, fails the test.
var unusedExports = map[string][]string{
	benchmarkCalls: {
		// Shims kept only under the names benchmark/ compiles against (ROADMAP
		// item 8(a) deletes them); the codec parameters of EncodeWireRequest
		// and Client.OpenSession are pinned through their functions.
		"middleware.AuthMAC", "middleware.WithRequestAuth",
		"middleware.CodecBinary", "middleware.Config.Codec", "middleware.SessionGrant.Codec",
		"middleware.EncodeWireRequest", "netedge.Client.OpenSession",
		"middleware.ParseGroupEnvelope", "middleware.OpenGroupEnvelope",
		"middleware.GatewayStats.AuditShed", "middleware.GatewayStats.AuditRingPending",
		"ordering.WithShardAudit", "ordering.ReplicatedShard.Cluster",
	},
	"errors callers match with errors.Is": {
		"middleware.ErrAggregateRelease", "middleware.ErrAttestationRequired", "middleware.ErrBadAggregand",
		"middleware.ErrBadMAC", "middleware.ErrBatchRelease", "middleware.ErrIdentityMismatch",
		"middleware.ErrNotAuthenticated", "middleware.ErrProofInvalid", "middleware.ErrRateLimited",
		"middleware.ErrReplayedHello", "middleware.ErrSessionExpired", "middleware.ErrStaleHello",
		"netedge.ErrClosed", "netedge.ErrFrameTooBig",
		"ordering.ErrBadShard", "ordering.ErrChannelExists", "ordering.ErrChannelMoved",
		"ordering.ErrClusterSize", "ordering.ErrNoShards", "ordering.ErrNoSubscribers",
		"ordering.ErrNotMigratable", "ordering.ErrQueuedAwaitingLeader",
	},
	"types in exported signatures, and optional interfaces a caller's value may implement": {
		"middleware.BackendStats", "middleware.Envelope", "middleware.FabricBackend",
		"middleware.GenerationalDirectory", "middleware.RequestAuthMode", "middleware.RevocationSource",
		"middleware.RevokeCheckMode", "middleware.SessionManager", "middleware.SessionOption",
		"middleware.SessionStats", "middleware.StageStats", "middleware.SubmitFuture", "middleware.SyncDirectory",
		"netedge.DialOption", "netedge.PendingCall", "netedge.PendingSubmit", "netedge.WireError",
		"ordering.ChannelMigrator", "ordering.ChannelState", "ordering.Service", "ordering.Visibility",
	},
	"methods an interface requires, called through it": {
		"middleware.Encrypt.ReadmitMember", "middleware.Encrypt.RevokeMember", "middleware.Session.Manager",
		"middleware.StaticDirectory.MemberKeys", "middleware.SyncDirectory.MemberKeys",
		"middleware.SyncDirectory.Generation",
		"ordering.ReplicatedShard.ExportChannel", "ordering.ReplicatedShard.ImportChannel",
		"ordering.ReplicatedShard.ReplicaEntries",
	},
	"JSON bodies of the admin wire topics": {
		"middleware.RebalanceNotice", "middleware.RebalanceRequest", "middleware.RevocationNotice",
	},
	"deployment bounds docs/OPERATIONS.md names and tests set": {
		"netedge.DefaultMaxFrame", "netedge.WithIdleTimeout", "netedge.WithMaxFrame", "netedge.WithWriteTimeout",
	},
	"the paper's Corda and Quorum adapters, which only tests build": {
		"middleware.CordaBackend", "middleware.NewCordaBackend", "middleware.QuorumBackend", "middleware.NewQuorumBackend",
	},
	"only tests call it: client halves and fixtures, to move into tests or gain a product caller": {
		"middleware.AttachRangeProof", "middleware.EncodeEnvelope", "middleware.SealEnvelope",
		"middleware.SignRequest", "middleware.SyncDirectory.SetChannel",
		// Its bare name is Encrypt's hook too, so the walk cannot tell.
		"middleware.Gateway.ReadmitMember",
		"ordering.NewCluster",
	},
	"used only inside its package, to be unexported later": {
		"middleware.Aggregate", "middleware.AnonCred", "middleware.Attest", "middleware.Audit",
		"middleware.Authn", "middleware.Batch", "middleware.Breaker", "middleware.RateLimit",
		"middleware.Session", "middleware.ZKProof",
		"middleware.NewAggregate", "middleware.NewAnonCred", "middleware.NewAttestTEE", "middleware.NewAudit",
		"middleware.NewAuthn", "middleware.NewBatch", "middleware.NewBreaker", "middleware.NewCachedEncrypt",
		"middleware.NewChain", "middleware.NewEncrypt", "middleware.NewRateLimit", "middleware.NewSession",
		"middleware.NewZKProofRange",
		"middleware.BindInput", "middleware.BindOff", "middleware.BindOutput",
		"middleware.Config.Build", "middleware.DefaultRebalanceSkew",
		"middleware.Encrypt.RevokedRotations", "middleware.Encrypt.Rotations",
		"middleware.Gateway.RevocationEpoch", "middleware.Gateway.SyncRevocations",
		"middleware.NewSessionHelloAt", "middleware.ParseRevokeCheckMode", "middleware.RangeClaim",
		"middleware.RegisteredStages", "middleware.RevokeCheckOff", "middleware.RevokeCheckSweep",
		"middleware.SessionManager.SweepRevoked", "middleware.WithMaxPerPrincipal",
		"netedge.TopicEnroll",
		"ordering.Cluster.Elect",
	},
}

// TestExportedMeansUsed fails on an exported top-level name or method of a
// serving package that no non-test file outside the package references and
// that is not allow-listed, on an allow-list entry that is gone or now
// referenced, and on a benchmark-group entry that benchmark/ does not
// reference. Names are matched bare against every identifier token outside
// the package, so a name shared with any other identifier counts as used:
// the test can miss a dead name but never flags a live one.
func TestExportedMeansUsed(t *testing.T) {
	idents, err := identsByDir(".")
	if err != nil {
		t.Fatal(err)
	}
	allowed := make(map[string]string) // entry -> group
	for group, entries := range unusedExports {
		for _, e := range entries {
			if prev, dup := allowed[e]; dup {
				t.Errorf("%s is listed under both %q and %q", e, prev, group)
			}
			allowed[e] = group
		}
	}
	usedOutside := func(pkg, name string) bool {
		for dir, ids := range idents {
			if dir != pkg && ids[bare(name)] {
				return true
			}
		}
		return false
	}
	declared := make(map[string]bool) // "pkg.Name", "pkg.Type.Method", "pkg.Type.Field"
	dirOf := make(map[string]string)  // "pkg" -> its directory
	for _, pkg := range servingPackages {
		exported, fields, err := exportedNames(pkg)
		if err != nil {
			t.Fatal(err)
		}
		short := filepath.Base(pkg)
		dirOf[short] = pkg
		for _, name := range exported {
			entry := short + "." + name
			declared[entry] = true
			if usedOutside(pkg, name) || allowed[entry] != "" {
				continue
			}
			t.Errorf("%s is exported and nothing outside %s uses it: delete it, move it into a test file, "+
				"unexport it, or allow-list it under its reason", entry, pkg)
		}
		for _, f := range fields {
			declared[short+"."+f] = true
		}
	}
	entries := make([]string, 0, len(allowed))
	for e := range allowed {
		entries = append(entries, e)
	}
	sort.Strings(entries)
	for _, e := range entries {
		pkg, name, _ := strings.Cut(e, ".")
		switch {
		case !declared[e]:
			t.Errorf("allow-list entry %s names nothing the package exports: take it off", e)
		case allowed[e] == benchmarkCalls:
			if !idents["benchmark"][bare(name)] {
				t.Errorf("%s is listed as %q, and no benchmark/*.go file references it: delete the shim", e, benchmarkCalls)
			}
		case usedOutside(dirOf[pkg], name):
			t.Errorf("allow-list entry %s is now referenced outside its package: take it off", e)
		}
	}
}

// bare is the identifier a possibly qualified name ends in.
func bare(name string) string { return name[strings.LastIndex(name, ".")+1:] }

// identsByDir collects, per directory, the identifier tokens of every
// non-test Go file under root — comments and string literals excluded —
// skipping hidden directories and testdata. The benchmark module is
// walked too: what it compiles against is used.
func identsByDir(root string) (map[string]map[string]bool, error) {
	out := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		ids := out[dir]
		if ids == nil {
			ids = make(map[string]bool)
			out[dir] = ids
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(p, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok == token.IDENT {
				ids[lit] = true
			}
		}
	})
	return out, err
}

// exportedNames parses the non-test files of the package in dir and returns
// its exported top-level names and the exported methods of its exported
// types ("Type.Method"), and apart from them the exported fields of its
// exported struct types ("Type.Field").
func exportedNames(dir string) (names, fields []string, err error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	for _, p := range files {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					if d.Name.IsExported() {
						names = append(names, d.Name.Name)
					}
				} else if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) && d.Name.IsExported() {
					names = append(names, recv+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						names = append(names, s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if n.IsExported() {
										fields = append(fields, s.Name.Name+"."+n.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names = append(names, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return names, fields, nil
}

// receiverType is the name of a method's receiver type, T for T and *T;
// "" for a generic one, which the serving packages do not declare.
func receiverType(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
