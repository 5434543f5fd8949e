package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader type-checks packages from source with no toolchain help: the
// standard library resolves through the compiler's source importer
// (works offline, straight from GOROOT/src) and module-local import
// paths resolve against the module directory. cmd/simlint and the
// analysistest harness both load through it.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleDir  string

	std  types.ImporterFrom
	pkgs map[string]*LoadedPackage
}

// LoadedPackage is one parsed and type-checked package, ready to run
// analyzers over.
type LoadedPackage struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Imports are the module packages this one imports directly.
	Imports []*LoadedPackage
}

// Deps returns every module package lp imports, directly or through
// another, each once.
func (lp *LoadedPackage) Deps() []*LoadedPackage {
	var deps []*LoadedPackage
	seen := map[*LoadedPackage]bool{}
	var walk func(*LoadedPackage)
	walk = func(p *LoadedPackage) {
		for _, d := range p.Imports {
			if !seen[d] {
				seen[d] = true
				deps = append(deps, d)
				walk(d)
			}
		}
	}
	walk(lp)
	return deps
}

// NewLoader builds a loader rooted at the module directory.
func NewLoader(moduleDir, modulePath string) *Loader {
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModulePath: modulePath,
		ModuleDir:  moduleDir,
		pkgs:       map[string]*LoadedPackage{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	return l
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func FindModule(dir string) (moduleDir, modulePath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import resolves one import path for the type checker.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-local paths load
// from source under the module directory, everything else goes to the
// standard library's source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		lp, err := l.LoadDir(filepath.Join(l.ModuleDir, rel), path, nil)
		if err != nil {
			return nil, err
		}
		return lp.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// moduleRel maps a module-local import path to its directory relative
// to the module root ("." for the root package itself).
func (l *Loader) moduleRel(path string) (string, bool) {
	if path == l.ModulePath {
		return ".", true
	}
	if rel, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return rel, true
	}
	return "", false
}

// LoadDir parses and type-checks the package in dir under the given
// import path, reusing the cached result when the path was already
// loaded (directly or as a dependency) — a path must never map to two
// distinct *types.Packages or cross-package types stop being
// identical. extraFiles, when non-nil, overrides the build-context
// file listing (the analysistest harness passes explicit files).
func (l *Loader) LoadDir(dir, path string, extraFiles []string) (*LoadedPackage, error) {
	if lp, ok := l.pkgs[path]; ok {
		return lp, nil
	}
	var fileNames []string
	if extraFiles != nil {
		fileNames = extraFiles
	} else {
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", dir, err)
		}
		fileNames = append(fileNames, bp.GoFiles...)
		sort.Strings(fileNames)
		for i, f := range fileNames {
			fileNames[i] = filepath.Join(dir, f)
		}
	}
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	lp := &LoadedPackage{Path: path, Fset: l.Fset, Files: files, Types: pkg, Info: info}
	for _, imp := range pkg.Imports() {
		if dep, ok := l.pkgs[imp.Path()]; ok {
			lp.Imports = append(lp.Imports, dep)
		}
	}
	l.pkgs[path] = lp
	return lp, nil
}

// NewInfo returns a types.Info with every map the analyzers consume.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// RunAnalyzer applies one analyzer's Run phase to a loaded package,
// returning the diagnostics that survive //simlint:ignore suppression,
// sorted by position.
func RunAnalyzer(a *Analyzer, lp *LoadedPackage) ([]Diagnostic, error) {
	sup := BuildSuppressions(lp.Fset, lp.Files)
	var diags []Diagnostic
	pass := &Pass{
		Analyzer:  a,
		Fset:      lp.Fset,
		Files:     lp.Files,
		Pkg:       lp.Types,
		TypesInfo: lp.Info,
		Deps:      lp.Deps(),
	}
	pass.Report = func(d Diagnostic) {
		if !sup.Suppressed(lp.Fset, a.Name, d) {
			diags = append(diags, d)
		}
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}
