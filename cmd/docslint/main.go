// Command docslint keeps the prose honest: for each markdown file named
// on the command line it checks that every relative link resolves to a
// file or directory in the repository, and that every fenced ```go code
// block is syntactically valid and gofmt-clean (go/format.Source accepts
// whole files, declaration lists, and statement lists, so documentation
// snippets don't have to be compilable programs — just real, formatted
// Go). For a file named OPERATIONS.md it also checks that the confmw_*
// metric families the operator guide names are exactly the ones declared
// as string literals in non-test Go under internal/ and cmd/ of the
// repository the guide sits in, so a counter cannot ship undocumented and
// the guide cannot describe one that is gone. CI runs it over README.md
// and docs/, so the documentation set cannot drift into dead links,
// pseudo-code that no longer parses, or a stale metric table.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: docslint FILE.md ...")
		os.Exit(2)
	}
	failures := 0
	for _, file := range os.Args[1:] {
		problems := lintFile(file)
		if filepath.Base(file) == "OPERATIONS.md" {
			problems = append(problems, checkMetricFamilies(file)...)
		}
		for _, problem := range problems {
			fmt.Fprintln(os.Stderr, problem)
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d problem(s)\n", failures)
		os.Exit(1)
	}
	fmt.Printf("docslint: %d file(s) clean\n", len(os.Args)-1)
}

// linkPattern matches inline markdown links [text](target). Reference
// definitions and autolinks are rare enough here not to bother with.
var linkPattern = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// lintFile returns every problem found in one markdown file.
func lintFile(path string) []string {
	var problems []string
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	lines := strings.Split(string(data), "\n")
	dir := filepath.Dir(path)

	inFence := false
	fenceLang := ""
	fenceStart := 0
	var fenceBody []string
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if !inFence {
				inFence = true
				fenceLang = strings.TrimSpace(strings.TrimPrefix(trimmed, "```"))
				fenceStart = i + 1
				fenceBody = fenceBody[:0]
			} else {
				if fenceLang == "go" {
					if p := checkGoSnippet(path, fenceStart, strings.Join(fenceBody, "\n")); p != "" {
						problems = append(problems, p)
					}
				}
				inFence = false
			}
			continue
		}
		if inFence {
			fenceBody = append(fenceBody, line)
			continue
		}
		for _, m := range linkPattern.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if p := checkLink(path, dir, i+1, target); p != "" {
				problems = append(problems, p)
			}
		}
	}
	if inFence {
		problems = append(problems, fmt.Sprintf("%s:%d: unterminated code fence", path, fenceStart))
	}
	return problems
}

// checkLink validates one link target; external schemes and in-page
// anchors pass untouched.
func checkLink(path, dir string, line int, target string) string {
	switch {
	case strings.HasPrefix(target, "http://"),
		strings.HasPrefix(target, "https://"),
		strings.HasPrefix(target, "mailto:"),
		strings.HasPrefix(target, "#"):
		return ""
	}
	// Strip an in-file anchor from a relative target.
	if i := strings.IndexByte(target, '#'); i >= 0 {
		target = target[:i]
	}
	if target == "" {
		return ""
	}
	if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
		return fmt.Sprintf("%s:%d: broken link: %s", path, line, target)
	}
	return ""
}

// checkGoSnippet requires the fenced block to be parseable, gofmt-clean
// Go. Leading/trailing blank space and the trailing newline are
// normalized before comparison so authors aren't fighting the fence.
func checkGoSnippet(path string, line int, src string) string {
	trimmed := strings.TrimSpace(src)
	if trimmed == "" {
		return ""
	}
	formatted, err := format.Source([]byte(trimmed))
	if err != nil {
		return fmt.Sprintf("%s:%d: go snippet does not parse: %v", path, line, err)
	}
	if !bytes.Equal(bytes.TrimSpace(formatted), []byte(trimmed)) {
		return fmt.Sprintf("%s:%d: go snippet is not gofmt-formatted", path, line)
	}
	return ""
}

// familyLiteral matches a whole string literal naming a metric family —
// how every family is declared in code; familyMention a family named in
// prose, where a trailing underscore marks a prefix such as confmw_edge_*.
var (
	familyLiteral = regexp.MustCompile(`"(confmw_[a-z0-9_]+)"`)
	familyMention = regexp.MustCompile(`confmw_[a-z0-9_]+`)
)

// checkMetricFamilies reports each family that the operator guide at
// opsPath (<root>/docs/OPERATIONS.md) names but no non-test Go under
// <root>/internal or <root>/cmd declares, and each declared one it omits.
func checkMetricFamilies(opsPath string) []string {
	doc, err := os.ReadFile(opsPath)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", opsPath, err)}
	}
	documented := make(map[string]bool)
	for _, m := range familyMention.FindAll(doc, -1) {
		if !bytes.HasSuffix(m, []byte("_")) {
			documented[string(m)] = true
		}
	}
	declared := make(map[string]string) // family -> declaring file
	root := filepath.Dir(filepath.Dir(opsPath))
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			for _, m := range familyLiteral.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = path
			}
			return err
		})
		if err != nil {
			return []string{fmt.Sprintf("%s: scanning %s for metric families: %v", opsPath, dir, err)}
		}
	}
	var problems []string
	for family, file := range declared {
		if !documented[family] {
			problems = append(problems, fmt.Sprintf("%s: metric family %s is not named in %s", file, family, opsPath))
		}
	}
	for family := range documented {
		if declared[family] == "" {
			problems = append(problems, fmt.Sprintf("%s: names metric family %s, which no non-test Go under internal/ or cmd/ declares", opsPath, family))
		}
	}
	sort.Strings(problems)
	return problems
}
