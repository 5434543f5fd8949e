// Package analysistest is a golden-file test harness for the simlint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest on
// the stdlib only: a testdata package is type-checked from source,
// the analyzer runs over it, and its diagnostics are matched against
// `// want "regexp"` comments on the expected lines. Every diagnostic
// must be wanted and every want must be hit, so the corpus doubles as
// a no-false-positive test: clean patterns carry no want comments and
// any diagnostic on them fails the test.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gpues/internal/analysis"
)

// Run loads the single package in dir (relative to the test's working
// directory) under the given import path, applies the analyzer, and
// compares diagnostics against the // want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgpath string) {
	t.Helper()
	moduleDir, modulePath, err := analysis.FindModule(".")
	if err != nil {
		t.Fatal(err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(abs, e.Name()))
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatalf("no .go files in %s", abs)
	}

	loader := analysis.NewLoader(moduleDir, modulePath)
	lp, err := loader.LoadDir(abs, pkgpath, files)
	if err != nil {
		t.Fatal(err)
	}

	// Only the corpus package is analyzed: its imports are real repo
	// packages whose findings belong to the repo-wide simlint run.
	diags, err := analysis.RunAnalyzer(a, lp)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, lp)
	for _, d := range diags {
		p := lp.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
		if !consume(wants[key], d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(p.Filename), p.Line, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("%s: expected diagnostic matching %q, got none", key, w.rx)
			}
		}
	}
}

type want struct {
	rx  *regexp.Regexp
	hit bool
}

func consume(ws []*want, msg string) bool {
	for _, w := range ws {
		if !w.hit && w.rx.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}

// collectWants scans `// want "rx" ["rx"...]` comments, keyed by the
// file:line they sit on.
func collectWants(t *testing.T, lp *analysis.LoadedPackage) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, f := range lp.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// The marker may open the comment or trail one (a directive
				// corpus wants diagnostics on the directive comment itself:
				// `//simlint:noaloc x // want "unknown"`).
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len("// want "):]
				p := lp.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				for _, rx := range parseWantArgs(t, key, rest) {
					wants[key] = append(wants[key], &want{rx: rx})
				}
			}
		}
	}
	return wants
}

// parseWantArgs splits a want payload into its quoted regexps.
func parseWantArgs(t *testing.T, key, s string) []*regexp.Regexp {
	t.Helper()
	var out []*regexp.Regexp
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		if s[0] != '"' {
			t.Fatalf("%s: malformed want comment near %q", key, s)
		}
		end := 1
		for end < len(s) && (s[end] != '"' || s[end-1] == '\\') {
			end++
		}
		if end == len(s) {
			t.Fatalf("%s: unterminated want string", key)
		}
		lit, err := strconv.Unquote(s[:end+1])
		if err != nil {
			t.Fatalf("%s: bad want string %s: %v", key, s[:end+1], err)
		}
		rx, err := regexp.Compile(lit)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", key, lit, err)
		}
		out = append(out, rx)
		s = s[end+1:]
	}
}
