package dltprivacy_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
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
// or that something outside its package now references, fails the test. A
// function no binary reaches is not listed here but in reach_test.go's
// unreachedAllowed, which this test accepts too; no name is on both.
var unusedExports = map[string][]string{
	benchmarkCalls: {
		// Shims kept only under the names benchmark/ compiles against (ROADMAP
		// item 8(a) deletes them); the codec parameters of EncodeWireRequest
		// and Client.OpenSession are pinned through their functions.
		"middleware.AuthMAC", "middleware.WithRequestAuth",
		"middleware.RevokeCheckResolve", "middleware.WithRevocationChecks",
		"middleware.CodecBinary", "middleware.Config.Codec", "middleware.SessionGrant.Codec",
		"middleware.EncodeWireRequest", "netedge.Client.OpenSession",
		"middleware.ParseGroupEnvelope", "middleware.OpenGroupEnvelope",
		"middleware.GatewayStats.AuditShed", "middleware.GatewayStats.AuditRingPending",
		"ordering.WithShardAudit", "ordering.ReplicatedShard.Cluster",
	},
	"errors callers match with errors.Is, and the Unwrap it walks": {
		"middleware.ErrAggregateRelease", "middleware.ErrAttestationRequired", "middleware.ErrBadAggregand",
		"middleware.ErrBadFrame", "middleware.ErrBadMAC", "middleware.ErrBadSignature",
		"middleware.ErrBatchRelease", "middleware.ErrIdentityMismatch", "middleware.ErrUnknownChannel",
		"middleware.ErrNotAuthenticated", "middleware.ErrProofInvalid",
		"middleware.ErrReplayedHello", "middleware.ErrSessionExpired", "middleware.ErrStaleHello",
		"netedge.ErrClosed", "netedge.ErrFrameTooBig", "netedge.WireError.Unwrap",
		"ordering.ErrBadShard", "ordering.ErrChannelExists", "ordering.ErrChannelMoved",
		"ordering.ErrClusterSize", "ordering.ErrNoShards", "ordering.ErrNoSubscribers",
		"ordering.ErrNotMigratable", "ordering.ErrQueuedAwaitingLeader",
	},
	"types in exported signatures, and optional interfaces a caller's value may implement": {
		"middleware.Backend", "middleware.BackendStats", "middleware.Chain", "middleware.Directory",
		"middleware.Envelope", "middleware.FabricBackend", "middleware.GenerationalDirectory",
		"middleware.Handler", "middleware.RequestAuthMode", "middleware.RevocationSource",
		"middleware.RevokeCheckMode", "middleware.Revoker", "middleware.SessionManager",
		"middleware.SessionOption", "middleware.SessionStats", "middleware.Stage", "middleware.StageStats",
		"middleware.SyncDirectory",
		"netedge.DialOption", "netedge.PendingCall", "netedge.WireError",
		"ordering.ChannelMigrator", "ordering.ChannelState", "ordering.Cluster", "ordering.Option", "ordering.Service",
		"ordering.Visibility",
	},
	"fault seams, and the verifier that runs ledger.Tip.Extend over the delivery stream middleware's chaos tests drive; ChainVerifier is item 1(b)'s": {
		"ordering.ChainVerifier", "ordering.Cluster.Crash", "ordering.Cluster.Flush", "ordering.Cluster.Leader",
	},
	"the deployment bound docs/OPERATIONS.md names": {
		"netedge.DefaultMaxFrame",
	},
	"ROADMAP item 30 gives it a caller outside its package": {
		"middleware.RegisteredStages",
	},
}

// TestExportedMeansUsed fails on an exported top-level name or method of a
// serving package that no non-test file outside the package uses and that
// is not allow-listed, on an allow-list entry that is gone or now used, and
// on a benchmark-group entry that benchmark/ does not use. "Uses" is
// type-resolved: every non-test package of the module and of benchmark/ is
// type-checked, and a name counts only where types.Info.Uses resolves an
// identifier to that exact object, so a dead name that shares its spelling
// with another identifier is still found. A method also counts as used when
// its type implements an interface, named anywhere in that code, that
// requires it: such a method is reached through the interface.
func TestExportedMeansUsed(t *testing.T) {
	mod, err := loadModule(".")
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
	unreached := make(map[string]bool) // entries of unreachedAllowed
	for _, entries := range unreachedAllowed {
		for _, e := range entries {
			unreached[e] = true
			if allowed[e] != "" {
				t.Errorf("%s is allow-listed here and in unreachedAllowed: keep it only there", e)
			}
		}
	}
	usedFrom := make(map[types.Object]map[string]bool) // object -> dirs of the packages using it
	for _, p := range mod.pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() == nil || obj.Pkg() == p.pkg {
				continue
			}
			obj = origin(obj)
			if usedFrom[obj] == nil {
				usedFrom[obj] = make(map[string]bool)
			}
			usedFrom[obj][p.dir] = true
		}
	}
	required := mod.interfaceMethods()
	declared := make(map[string]types.Object) // "pkg.Name", "pkg.Type.Method", "pkg.Type.Field"
	for _, dir := range servingPackages {
		p := mod.pkgs[mod.path(dir)]
		if p == nil {
			t.Fatalf("%s: no such package", dir)
		}
		short := p.pkg.Name()
		names, fields := exportedObjects(p.pkg)
		for name, obj := range fields {
			declared[short+"."+name] = obj
		}
		for name, obj := range names {
			entry := short + "." + name
			declared[entry] = obj
			if len(usedFrom[obj]) > 0 || required(obj) || allowed[entry] != "" || unreached[entry] {
				continue
			}
			t.Errorf("%s is exported and nothing outside %s uses it: delete it, move it into a test file, "+
				"unexport it, or allow-list it under its reason", entry, dir)
		}
	}
	entries := make([]string, 0, len(allowed))
	for e := range allowed {
		entries = append(entries, e)
	}
	sort.Strings(entries)
	for _, e := range entries {
		obj := declared[e]
		switch {
		case obj == nil:
			t.Errorf("allow-list entry %s names nothing the package exports: take it off", e)
		case allowed[e] == benchmarkCalls:
			if !usedFrom[obj]["benchmark"] {
				t.Errorf("%s is listed as %q, and no benchmark/*.go file uses it: delete the shim", e, benchmarkCalls)
			}
		case len(usedFrom[obj]) > 0 || required(obj):
			t.Errorf("allow-list entry %s is now used outside its package: take it off", e)
		}
	}
}

// origin is the generic object an instantiated field or method comes from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportedObjects returns the exported top-level objects of pkg and the
// exported methods of its exported named types ("Type.Method"), and apart
// from them the exported fields of its exported struct types
// ("Type.Field").
func exportedObjects(pkg *types.Package) (names, fields map[string]types.Object) {
	names = make(map[string]types.Object)
	fields = make(map[string]types.Object)
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		names[name] = obj
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				names[name+"."+m.Name()] = m
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[name+"."+f.Name()] = f
				}
			}
		}
	}
	return names, fields
}

// module is the type-checked non-test code of this module and of the
// benchmark module beside it, whose import paths both map onto directories
// under the repository root ("dltprivacy/x/y" is x/y).
type module struct {
	root string
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPackage // import path -> package
}

type checkedPackage struct {
	dir  string // slash-separated, relative to the root
	pkg  *types.Package
	info *types.Info
}

const modulePath = "dltprivacy"

// loadModule type-checks every directory under root that holds non-test Go
// files for this platform, skipping hidden directories and testdata. The
// standard library comes from the compiler's export data.
func loadModule(root string) (*module, error) {
	fset := token.NewFileSet()
	m := &module{root: root, fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: make(map[string]*checkedPackage)}
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
		_, err = m.Import(m.path(filepath.ToSlash(filepath.Dir(p))))
		return err
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// path is the import path of the package in dir.
func (m *module) path(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + dir
}

// Import type-checks a package of the module from its non-test files, once,
// and hands every other path to the standard library's importer.
func (m *module) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if p, ok := m.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if dir == "" {
		dir = "."
	}
	matches, err := filepath.Glob(filepath.Join(m.root, dir, "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range matches {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), filepath.Base(p)); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object), Types: make(map[ast.Expr]types.TypeAndValue)}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = &checkedPackage{dir: dir, pkg: pkg, info: info}
	return pkg, nil
}

// interfaceMethods returns whether obj is a method whose named type, or a
// pointer to it, implements an interface that requires the method and that
// some type expression of the module names (error and io.Writer included).
func (m *module) interfaceMethods() func(types.Object) bool {
	byMethod := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	for _, p := range m.pkgs {
		for _, tv := range p.info.Types {
			iface, ok := tv.Type.Underlying().(*types.Interface)
			if !tv.IsType() || !ok || seen[iface] {
				continue
			}
			seen[iface] = true
			for i := 0; i < iface.NumMethods(); i++ {
				name := iface.Method(i).Name()
				byMethod[name] = append(byMethod[name], iface)
			}
		}
	}
	return func(obj types.Object) bool {
		fn, ok := obj.(*types.Func)
		if !ok {
			return false
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		for _, iface := range byMethod[fn.Name()] {
			if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
				return true
			}
		}
		return false
	}
}
