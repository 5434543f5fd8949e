// Command simlint runs the simulator's static-analysis suite
// (internal/analysis: determinism, poolsafe, noalloc, enumswitch,
// directive, ckptcomplete).
//
// `simlint ./...` loads the named packages from source (no build cache
// needed), runs every analyzer over each of them and prints findings.
// Analyzers are per-package, so the packages a pattern names are the
// only ones analyzed; their imports are type-checked but not reported.
//
// Exit status: 0 clean, 1 driver error, 2 findings (matching go vet).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpues/internal/analysis"
	"gpues/internal/analysis/registry"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list the registered analyzers with one-line docs and exit 0")
		listAlso = flag.Bool("analyzers", false, "alias for -list")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range registry.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list || *listAlso {
		listAnalyzers(os.Stdout)
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args))
}

// listAnalyzers prints the registered analyzers with their one-line
// docs (the -list contract: exit 0, one analyzer per line).
func listAnalyzers(w io.Writer) {
	for _, a := range registry.All() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(w, "%s: %s\n", a.Name, doc)
	}
}

// standalone loads the requested packages from source and runs every
// analyzer over each of them, printing the surviving diagnostics.
func standalone(patterns []string) int {
	moduleDir, modulePath, err := analysis.FindModule(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	dirs, err := expandPatterns(moduleDir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	loader := analysis.NewLoader(moduleDir, modulePath)
	exit, found := 0, 0
	for _, dir := range dirs {
		rel, err := filepath.Rel(moduleDir, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		path := modulePath
		if rel != "." {
			path = modulePath + "/" + filepath.ToSlash(rel)
		}
		lp, err := loader.LoadDir(dir, path, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			exit = 1
			continue
		}
		found += report(lp)
	}
	if found > 0 && exit == 0 {
		exit = 2
	}
	return exit
}

// expandPatterns resolves ./...-style patterns and plain directories
// into the set of package directories to analyze.
func expandPatterns(moduleDir string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		base, rec := strings.CutSuffix(pat, "/...")
		if base == "." || base == "" {
			base = moduleDir
		}
		abs, err := filepath.Abs(base)
		if err != nil {
			return nil, err
		}
		if !rec {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// report runs every analyzer over one loaded package and prints the
// surviving diagnostics; returns how many were printed.
func report(lp *analysis.LoadedPackage) int {
	n := 0
	for _, a := range registry.All() {
		diags, err := analysis.RunAnalyzer(a, lp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", lp.Path, err)
			continue
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", lp.Fset.Position(d.Pos), a.Name, d.Message)
			n++
		}
	}
	return n
}
