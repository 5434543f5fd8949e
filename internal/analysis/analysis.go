// Package analysis is the simulator's static-analysis framework: a
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// core (the container has no module cache, so the real framework is
// unavailable), scoped to exactly what the simlint analyzers need.
//
// An Analyzer inspects one type-checked package (a Pass) and reports
// Diagnostics on that package only. A package's findings depend on
// that package alone, except that a call matches the
// //simlint:releases annotations of the module packages it depends on
// (Pass.Deps). The drivers — cmd/simlint and
// the analysistest harness — construct Passes and apply the shared
// suppression rules before surfacing diagnostics.
//
// Source directives understood by the suite:
//
//	//simlint:noalloc
//	    On a function's doc comment: the function body must contain no
//	    guaranteed-heap construct (checked by the noalloc analyzer).
//
//	//simlint:releases <n|recv>
//	    On a function's doc comment: calling the function releases its
//	    n-th argument (0-based) or its receiver back into an object
//	    pool; any later use of that value in the caller is a
//	    use-after-release (checked by the poolsafe analyzer).
//
//	//simlint:deterministic
//	    On a package comment: opts the package into the determinism
//	    analyzer's rules in addition to the built-in package list.
//
//	//simlint:ckptskip <reason>
//	    On a struct field of a checkpointable type (one implementing
//	    ckpt.Saver): exempts the field from the ckptcomplete analyzer's
//	    save/restore coverage proof. The reason is mandatory and should
//	    say why the field needs no serialization (rebuilt by replay,
//	    immutable config, derived cache, ...).
//
//	//simlint:ignore <analyzer> <reason>
//	    On (or on the line above) a flagged line: suppresses that
//	    analyzer's diagnostics for the line. The reason is mandatory.
//
// Unknown //simlint: verbs are themselves diagnosed (the directive
// analyzer), so a typo cannot silently disable a check.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //simlint:ignore directives.
	Name string
	// Doc is a one-paragraph description, shown by `simlint -list`.
	Doc string
	// Run applies the check to one package.
	Run func(*Pass) error
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Deps are the module packages Pkg depends on, parsed and
	// type-checked by the same loader, so their objects are the ones
	// Pkg's TypesInfo refers to. They are read, never reported on.
	Deps []*LoadedPackage

	// Report delivers one diagnostic. Drivers install it; analyzers
	// usually call Reportf instead.
	Report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// directivePrefix introduces every simlint source directive.
const directivePrefix = "//simlint:"

// KnownDirectives is the set of //simlint: verbs the suite understands.
// The directive analyzer diagnoses any other verb, so a typo like
// //simlint:noaloc fails the build instead of silently disabling a
// check. New directives must be registered here.
var KnownDirectives = map[string]bool{
	"noalloc":       true,
	"releases":      true,
	"deterministic": true,
	"ignore":        true,
	"ckptskip":      true,
}

// DirectiveOf exposes directive parsing to the analyzer packages: it
// splits a comment into its simlint verb and argument string, returning
// an empty verb when the comment is not a simlint directive.
func DirectiveOf(c *ast.Comment) (verb, args string) { return directive(c) }

// directive splits one comment into a simlint directive verb and its
// argument string ("" verb when the comment is not a directive).
func directive(c *ast.Comment) (verb, args string) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return "", ""
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	verb, args, _ = strings.Cut(rest, " ")
	return verb, strings.TrimSpace(args)
}

// FuncHasDirective reports whether fn's doc comment carries the given
// simlint directive verb (e.g. "noalloc") and returns its argument.
func FuncHasDirective(fn *ast.FuncDecl, verb string) (string, bool) {
	if fn.Doc == nil {
		return "", false
	}
	for _, c := range fn.Doc.List {
		if v, args := directive(c); v == verb {
			return args, true
		}
	}
	return "", false
}

// PackageHasDirective reports whether any file-level (package doc or
// floating) comment in the pass carries the directive verb.
func PackageHasDirective(files []*ast.File, verb string) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if v, _ := directive(c); v == verb {
					return true
				}
			}
		}
	}
	return false
}

// ReleaseSpec describes a //simlint:releases annotation resolved
// against the type-checked function it annotates.
type ReleaseSpec struct {
	// Arg is the 0-based index of the released parameter, or -1 when
	// the receiver is released.
	Arg int
}

// ParseReleases interprets the argument of a //simlint:releases
// directive ("recv" or a 0-based parameter index).
func ParseReleases(args string) (ReleaseSpec, error) {
	if args == "recv" {
		return ReleaseSpec{Arg: -1}, nil
	}
	n, err := strconv.Atoi(args)
	if err != nil || n < 0 {
		return ReleaseSpec{}, fmt.Errorf("simlint:releases wants %q or a parameter index, got %q", "recv", args)
	}
	return ReleaseSpec{Arg: n}, nil
}

// ReleaseFuncs indexes every //simlint:releases-annotated function in
// the pass's package and in the module packages it depends on by its
// types.Object, so call sites can be matched without name heuristics.
// A generic function or method is indexed by its declared object; a
// call site matches it through types.Func.Origin. A malformed
// annotation is reported only in the package that declares it.
func ReleaseFuncs(pass *Pass) map[types.Object]ReleaseSpec {
	out := map[types.Object]ReleaseSpec{}
	index := func(files []*ast.File, info *types.Info, report bool) {
		for _, f := range files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				args, ok := FuncHasDirective(fn, "releases")
				if !ok {
					continue
				}
				spec, err := ParseReleases(args)
				if err != nil {
					if report {
						pass.Reportf(fn.Pos(), "%v", err)
					}
					continue
				}
				if obj := info.Defs[fn.Name]; obj != nil {
					out[obj] = spec
				}
			}
		}
	}
	index(pass.Files, pass.TypesInfo, true)
	for _, dep := range pass.Deps {
		index(dep.Files, dep.Info, false)
	}
	return out
}

// Suppressions indexes //simlint:ignore directives: for each file line
// carrying (or directly below) an ignore comment, the set of analyzer
// names it silences.
type Suppressions map[suppressionKey]bool

type suppressionKey struct {
	file string
	line int
	name string
}

// BuildSuppressions scans the files' comments for ignore directives.
// A directive with no reason is itself a diagnostic at drive time (see
// Suppressed), so sloppily silenced findings stay visible.
func BuildSuppressions(fset *token.FileSet, files []*ast.File) Suppressions {
	s := Suppressions{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				verb, args := directive(c)
				if verb != "ignore" {
					continue
				}
				name, reason, _ := strings.Cut(args, " ")
				if name == "" || strings.TrimSpace(reason) == "" {
					// Malformed: suppress nothing; the finding survives.
					continue
				}
				p := fset.Position(c.Pos())
				// The directive covers its own line and the next one, so
				// it can sit at end-of-line or on the line above.
				s[suppressionKey{p.Filename, p.Line, name}] = true
				s[suppressionKey{p.Filename, p.Line + 1, name}] = true
			}
		}
	}
	return s
}

// Suppressed reports whether the diagnostic is silenced by an ignore
// directive for the analyzer.
func (s Suppressions) Suppressed(fset *token.FileSet, name string, d Diagnostic) bool {
	p := fset.Position(d.Pos)
	return s[suppressionKey{p.Filename, p.Line, name}]
}
