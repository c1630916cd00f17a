package dltprivacy_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// decryptors are the calls that turn sealed bytes back into plaintext — the
// envelope readers and the dcrypto primitives beneath them — by the package
// that declares them. A name ending in "*" stands for every name it starts.
var decryptors = map[string][]string{
	"dltprivacy/internal/middleware": {"OpenEnvelope", "OpenGroupEnvelope", "openSegments", "unwrapDataKey"},
	"dltprivacy/internal/dcrypto":    {"Unwrap", "DecryptSegments*", "DecryptSymmetric", "DecryptHybrid"},
}

// readers is the allow-list of directories whose non-test code may call a
// decryptor (path.Match patterns): the crypto itself, the gateway's envelope
// and handshake code, the design-guide probes, the enclave model, and the
// examples, which play channel members.
var readers = []string{"internal/dcrypto", "internal/middleware", "internal/guide", "internal/tee", "examples/*"}

// neverReaders are the intermediaries the paper's claim is about: the
// orderer, the platforms, the edge, the leakage log and the gateway binary
// handle sealed payloads and must never be able to open one.
var neverReaders = []string{"internal/ordering", "internal/platform", "internal/netedge", "internal/audit", "cmd/gateway"}

// TestOnlyReadersDecrypt parses every non-test Go file of the module and
// fails on a call to a decryptor from a directory that is not on the
// readers list, on a readers entry nothing needs any more, and on a readers
// entry that would cover an intermediary.
func TestOnlyReadersDecrypt(t *testing.T) {
	calls := make(map[string][]string) // directory -> "file:line name"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || isModuleRoot(p)) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		for _, name := range decryptorCalls(f, "dltprivacy/"+dir) {
			calls[dir] = append(calls[dir], name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	for dir, names := range calls {
		pattern, ok := readerFor(dir)
		if !ok {
			t.Errorf("%s is not on the readers list and calls %s", dir, strings.Join(names, ", "))
		}
		used[pattern] = true
	}
	for _, pattern := range readers {
		if !used[pattern] {
			t.Errorf("readers entry %s calls no decryptor: take it off the list", pattern)
		}
		for _, never := range neverReaders {
			if covers(pattern, never) {
				t.Errorf("readers entry %s covers %s, an intermediary that must never read", pattern, never)
			}
		}
	}
	for dir := range calls {
		for _, never := range neverReaders {
			if dir == never || strings.HasPrefix(dir, never+"/") {
				t.Errorf("%s, an intermediary, calls %s", dir, strings.Join(calls[dir], ", "))
			}
		}
	}
}

// isModuleRoot reports whether dir holds a go.mod of its own: another
// module, outside this one.
func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// decryptorCalls lists the decryptor calls in f, a file of package pkgPath:
// pkg.Name(...) through an import, and Name(...) inside the declaring package.
func decryptorCalls(f *ast.File, pkgPath string) []string {
	imports := make(map[string]string) // local name -> import path
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	var found []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if isDecryptor(pkgPath, fun.Name) {
				found = append(found, fun.Name)
			}
		case *ast.SelectorExpr:
			if x, ok := fun.X.(*ast.Ident); ok && isDecryptor(imports[x.Name], fun.Sel.Name) {
				found = append(found, x.Name+"."+fun.Sel.Name)
			}
		}
		return true
	})
	return found
}

func isDecryptor(pkgPath, name string) bool {
	for _, d := range decryptors[pkgPath] {
		if d == name || strings.HasSuffix(d, "*") && strings.HasPrefix(name, strings.TrimSuffix(d, "*")) {
			return true
		}
	}
	return false
}

// readerFor returns the readers entry that admits dir.
func readerFor(dir string) (string, bool) {
	for _, pattern := range readers {
		if ok, _ := path.Match(pattern, dir); ok {
			return pattern, true
		}
	}
	return "", false
}

// covers reports whether pattern admits dir or any directory below it.
func covers(pattern, dir string) bool {
	for _, d := range []string{dir, dir + "/x"} {
		if ok, _ := path.Match(pattern, d); ok {
			return true
		}
	}
	return false
}
