package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCheckMetricFamilies(t *testing.T) {
	root := t.TempDir()
	write := func(rel, body string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/a/a.go", `package a
var rows = []string{"confmw_a_total", "confmw_only_in_code_total"}
var prefix = "confmw_" // a prefix, not a family
`)
	write("internal/a/a_test.go", `package a
var scratch = "confmw_test_only_total"
`)
	write("cmd/b/main.go", `package main
var row = "confmw_b_live"
`)
	write("docs/OPERATIONS.md", "`confmw_a_total`, `confmw_b_live`, every `confmw_edge_*` series, and `confmw_only_in_docs_total`.\n")

	problems := checkMetricFamilies(filepath.Join(root, "docs", "OPERATIONS.md"))
	if len(problems) != 2 {
		t.Fatalf("want exactly the code-only and the docs-only family reported, got %q", problems)
	}
	joined := strings.Join(problems, "\n")
	for _, want := range []string{"confmw_only_in_code_total is not named", "names metric family confmw_only_in_docs_total"} {
		if !strings.Contains(joined, want) {
			t.Errorf("problems %q lack %q", problems, want)
		}
	}
}
