// Command simlint runs the simulator's static-analysis suite
// (internal/analysis: determinism, poolsafe, noalloc, enumswitch,
// directive, ckptcomplete).
//
// Two modes:
//
//   - Standalone: `simlint ./...` loads the named packages from source
//     (no build cache needed) and prints findings. This is what CI
//     gates on.
//
//   - Vettool: `go vet -vettool=$(which simlint) ./...` — the go
//     command invokes simlint once per package with a JSON config file
//     carrying export data, per the x/tools unitchecker protocol,
//     which this command reimplements on the stdlib.
//
// Exit status: 0 clean, 1 driver error, 2 findings (matching go vet).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gpues/internal/analysis"
	"gpues/internal/analysis/registry"
)

func main() {
	// The go command probes vettools before use: `-V=full` must print a
	// stable build identifier, `-flags` the supported flag set.
	if len(os.Args) > 1 {
		switch {
		case os.Args[1] == "-V=full" || os.Args[1] == "--V=full":
			printVersion()
			return
		case os.Args[1] == "-flags" || os.Args[1] == "--flags":
			printFlags()
			return
		}
	}

	var (
		jsonOut  = flag.Bool("json", false, "emit JSON diagnostics (vettool protocol)")
		_        = flag.Int("c", -1, "display offending line with this many lines of context (accepted for vet compatibility)")
		list     = flag.Bool("list", false, "list the registered analyzers with one-line docs and exit 0")
		listAlso = flag.Bool("analyzers", false, "alias for -list")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [flags] ./... | simlint <vet>.cfg\n\nAnalyzers:\n")
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
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitCheck(args[0], *jsonOut))
	}
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

// standalone loads packages from source and runs the suite
// whole-program: every module-local package in the requested set's
// import closure gets a fact-producing Run phase (in dependency order,
// so facts flow forward), then each interprocedural analyzer finishes
// over the assembled program. Diagnostics are only printed for the
// packages the user asked for.
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
	exit := 0
	requested := map[string]bool{}
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
		if _, err := loader.LoadDir(dir, path, nil); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			exit = 1
			continue
		}
		requested[path] = true
	}

	// Run phases over the full closure, reporting only requested
	// packages; dependency packages still run so their facts exist.
	facts := analysis.NewFactStore()
	found := 0
	pkgs := loader.Packages()
	for _, lp := range pkgs {
		found += reportAll(lp, facts, requested[lp.Path])
	}

	// Finish phases over the whole program.
	prog := analysis.NewProgram(loader.Fset, pkgs, facts)
	for _, a := range registry.All() {
		diags, err := analysis.RunFinish(a, prog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			if exit == 0 {
				exit = 1
			}
			continue
		}
		for _, d := range diags {
			lp := prog.PackageAt(d.Pos)
			if lp == nil || !requested[lp.Path] {
				continue
			}
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", prog.Fset.Position(d.Pos), a.Name, d.Message)
			found++
		}
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

// reportAll runs every analyzer over one loaded package (populating the
// shared fact store) and, when report is set, prints the surviving
// diagnostics; returns how many were printed.
func reportAll(lp *analysis.LoadedPackage, facts *analysis.FactStore, report bool) int {
	n := 0
	for _, a := range registry.All() {
		diags, err := analysis.RunAnalyzer(a, lp, facts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", lp.Path, err)
			continue
		}
		if !report {
			continue
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", lp.Fset.Position(d.Pos), a.Name, d.Message)
			n++
		}
	}
	return n
}

// ---- go vet -vettool protocol (unitchecker reimplementation) ----

// vetConfig is the JSON the go command writes for each vetted package.
// Field set and semantics follow x/tools/go/analysis/unitchecker.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func unitCheck(cfgFile string, jsonOut bool) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: parsing %s: %v\n", cfgFile, err)
		return 1
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		// The simlint invariants govern the simulator's runtime code, not
		// its tests (which legitimately spawn goroutines, range over maps
		// while asserting, etc.) — matching standalone mode, which loads
		// only non-test files.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		// External test package: nothing in scope, but the go command
		// still expects the facts file to exist.
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "simlint:", err)
				return 1
			}
		}
		return 0
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "source"
	}
	imp := importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	tconf := types.Config{
		Importer:  imp,
		GoVersion: strings.TrimPrefix(cfg.GoVersion, "v"),
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
	}
	info := analysis.NewInfo()
	pkg, err := tconf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}

	lp := &analysis.LoadedPackage{Path: cfg.ImportPath, Fset: fset, Files: files, Types: pkg, Info: info}

	// Facts protocol: decode upstream .vetx fact files into the store
	// before running, so interprocedural analyzers see their
	// dependencies' summaries; encode this package's facts afterwards.
	// registry.All registers the fact types with gob — it must run
	// before the first DecodeFacts call.
	analyzers := registry.All()
	facts := analysis.NewFactStore()
	byImport := map[string]*types.Package{}
	var index func(p *types.Package)
	index = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if byImport[imp.Path()] != nil {
				continue
			}
			byImport[imp.Path()] = imp
			index(imp)
		}
	}
	index(pkg)
	lookup := func(path string) *types.Package { return byImport[path] }
	// Sorted for deterministic decode order.
	var vetxPaths []string
	for p := range cfg.PackageVetx {
		vetxPaths = append(vetxPaths, p)
	}
	sort.Strings(vetxPaths)
	for _, p := range vetxPaths {
		data, err := os.ReadFile(cfg.PackageVetx[p])
		if err != nil || len(data) == 0 {
			continue // dependency produced no facts (or pre-facts cache entry)
		}
		if err := facts.DecodeFacts(data, lookup); err != nil {
			fmt.Fprintf(os.Stderr, "simlint: decoding facts for %s: %v\n", p, err)
			return 1
		}
	}

	type jsonDiag struct {
		Posn    string `json:"posn"`
		Message string `json:"message"`
	}
	found := 0
	byAnalyzer := map[string][]jsonDiag{}
	for _, a := range analyzers {
		diags, err := analysis.RunAnalyzer(a, lp, facts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", cfg.ImportPath, err)
			continue
		}
		if cfg.VetxOnly {
			continue // facts produced; diagnostics belong to the reporting run
		}
		for _, d := range diags {
			found++
			if jsonOut {
				byAnalyzer[a.Name] = append(byAnalyzer[a.Name],
					jsonDiag{Posn: fset.Position(d.Pos).String(), Message: d.Message})
			} else {
				fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			}
		}
	}

	if cfg.VetxOutput != "" {
		// Re-export the whole store (own facts plus upstream ones) so
		// downstream units see transitive summaries even when the go
		// command only hands them direct-dependency .vetx files.
		data, err := facts.EncodeFacts(map[*types.Package]bool{pkg: true}, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		if err := os.WriteFile(cfg.VetxOutput, data, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// Finish phase over the single-unit program: interprocedural
	// analyzers prove what they can from this package plus imported
	// facts. (Whole-program guarantees — e.g. implementations declared
	// in packages that import this one — need standalone mode, which CI
	// uses.)
	prog := analysis.NewProgram(fset, []*analysis.LoadedPackage{lp}, facts)
	for _, a := range analyzers {
		diags, err := analysis.RunFinish(a, prog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", cfg.ImportPath, err)
			continue
		}
		for _, d := range diags {
			if lp2 := prog.PackageAt(d.Pos); lp2 == nil {
				continue // position outside this unit's files
			}
			found++
			if jsonOut {
				byAnalyzer[a.Name] = append(byAnalyzer[a.Name],
					jsonDiag{Posn: fset.Position(d.Pos).String(), Message: d.Message})
			} else {
				fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
			}
		}
	}

	if jsonOut {
		// unitchecker shape: {"pkg": {"analyzer": [diags]}}
		out := map[string]map[string][]jsonDiag{cfg.ID: byAnalyzer}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		enc.Encode(out)
		return 0
	}
	if found > 0 {
		return 2
	}
	return 0
}

// printVersion emits the build-identity line the go command uses for
// tool caching (mirrors x/tools analysisflags' -V=full output).
func printVersion() {
	progname, _ := os.Executable()
	f, err := os.Open(progname)
	if err == nil {
		h := sha256.New()
		io.Copy(h, f)
		f.Close()
		fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, string(h.Sum(nil)[:24]))
		return
	}
	fmt.Printf("%s version devel\n", progname)
}

// printFlags answers the go command's flag probe with the flags vet is
// allowed to pass through.
func printFlags() {
	type jsonFlag struct {
		Name  string `json:"Name"`
		Bool  bool   `json:"Bool"`
		Usage string `json:"Usage"`
	}
	flags := []jsonFlag{
		{Name: "json", Bool: true, Usage: "emit JSON diagnostics"},
		{Name: "c", Bool: false, Usage: "context lines (accepted, unused)"},
	}
	data, _ := json.Marshal(flags)
	os.Stdout.Write(data)
}
