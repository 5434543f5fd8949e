// Package determinism flags constructs that can break the simulator's
// bit-identical replay guarantee: map iteration whose body mutates
// state or emits events (Go randomises map order per run), wall-clock
// reads, the global math/rand source, and goroutine spawns in the
// timing core. The timing core is single-threaded, so every goroutine
// spawn in it is reported.
//
// The analyzer applies to the built-in list of timing-core packages
// plus any package carrying a //simlint:deterministic comment.
package determinism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"gpues/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "flag nondeterministic constructs (unordered map iteration with side effects, " +
		"time.Now, global math/rand, goroutine spawns) in timing-core packages",
	Run: run,
}

// corePackages are the import-path segments (matched as suffixes under
// the module path) that are always in scope; other packages opt in
// with //simlint:deterministic.
var corePackages = []string{
	"internal/clock",
	"internal/sm",
	"internal/core",
	"internal/sim",
	"internal/cache",
	"internal/tlb",
	"internal/dram",
	"internal/interconnect",
	"internal/host",
	"internal/vm",
	"internal/emu",
	"internal/excep",
	"internal/obs",
	"internal/ckpt",
	"internal/bisect",
}

func inScope(pass *analysis.Pass) bool {
	if analysis.PackageHasDirective(pass.Files, "deterministic") {
		return true
	}
	path := pass.Pkg.Path()
	for _, seg := range corePackages {
		if path == seg || strings.HasSuffix(path, "/"+seg) || strings.Contains(path, "/"+seg+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !inScope(pass) {
		return nil
	}
	for _, file := range pass.Files {
		v := &visitor{pass: pass}
		ast.Walk(v, file)
	}
	return nil
}

// visitor walks one file keeping a stack of enclosing function bodies,
// so "local variable" questions resolve against the right scope.
type visitor struct {
	pass  *analysis.Pass
	funcs []ast.Node // *ast.FuncDecl or *ast.FuncLit
}

func (v *visitor) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case *ast.FuncDecl, *ast.FuncLit:
		stack := make([]ast.Node, len(v.funcs)+1)
		copy(stack, v.funcs)
		stack[len(v.funcs)] = n
		return &visitor{pass: v.pass, funcs: stack}
	case *ast.GoStmt:
		v.pass.Reportf(n.Pos(), "goroutine spawned in a timing-core package: the timing core is single-threaded, so concurrency would make results depend on the Go scheduler")
	case *ast.CallExpr:
		v.checkCall(n)
	case *ast.RangeStmt:
		v.checkRange(n)
	}
	return v
}

// checkCall flags wall-clock reads and the shared math/rand source.
func (v *visitor) checkCall(call *ast.CallExpr) {
	fn := calleeFunc(v.pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" && fn.Type().(*types.Signature).Recv() == nil {
			v.pass.Reportf(call.Pos(), "time.Now in a timing-core package: simulated components must derive time from the clock.Queue cycle, never the wall clock")
		}
	case "math/rand", "math/rand/v2":
		if fn.Type().(*types.Signature).Recv() == nil && fn.Name() != "New" && fn.Name() != "NewSource" && fn.Name() != "NewPCG" && fn.Name() != "NewChaCha8" {
			v.pass.Reportf(call.Pos(), "global math/rand source in a timing-core package: use a seeded *rand.Rand carried by the component so runs replay bit-identically")
		}
	}
}

// calleeFunc resolves the called function object, if it is a named
// function or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkRange applies the map-iteration rule: ranging over a map is
// fine only while the body does order-insensitive local accumulation;
// mutating anything non-local, calling out, sending, or returning
// early all observe the randomised order.
func (v *visitor) checkRange(rng *ast.RangeStmt) {
	t := v.pass.TypesInfo.Types[rng.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if len(v.funcs) == 0 {
		return
	}
	fn := v.funcs[len(v.funcs)-1]
	if reason, pos := v.unsafeBody(rng, fn); reason != "" {
		v.pass.Reportf(pos, "map iteration order is nondeterministic and the loop body %s; iterate sorted keys (or a slice) so replays stay bit-identical", reason)
	}
}

// unsafeBody scans a map-range body for order-sensitive effects and
// returns a description of the first one, or "".
func (v *visitor) unsafeBody(rng *ast.RangeStmt, fn ast.Node) (reason string, pos token.Pos) {
	info := v.pass.TypesInfo
	local := func(e ast.Expr) bool { return isLocal(info, e, fn) }
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if allowedInRange(info, n) {
				return true
			}
			reason, pos = "calls out (the callee may emit events, mutate state, or observe order)", n.Pos()
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if !local(lhs) {
					reason, pos = "assigns to non-local state", lhs.Pos()
					return false
				}
			}
		case *ast.IncDecStmt:
			if !local(n.X) {
				reason, pos = "mutates non-local state", n.Pos()
				return false
			}
		case *ast.SendStmt:
			reason, pos = "sends on a channel", n.Pos()
			return false
		case *ast.ReturnStmt:
			reason, pos = "returns early (the chosen element depends on iteration order)", n.Pos()
			return false
		case *ast.GoStmt, *ast.DeferStmt:
			reason, pos = "spawns deferred or concurrent work", n.Pos()
			return false
		}
		return true
	})
	return reason, pos
}

// allowedInRange permits effect-free builtins, pure formatting, and
// append/delete: append-into-a-local is the blessed collect-then-sort
// idiom (the subsequent sort restores determinism) and delete of
// ranged keys is order-insensitive.
func allowedInRange(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "min", "max", "append", "delete", "copy", "make", "new", "real", "imag":
				return true
			}
		}
	case *ast.SelectorExpr:
		// Pure value-returning formatters: they observe only their
		// operands, so calling them per entry is order-insensitive.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok && fn.Pkg() != nil &&
			fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Sprint", "Sprintln", "Errorf":
				return true
			}
		}
	}
	// Conversions (e.g. int64(v)) are effect-free.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true
	}
	return false
}

// isLocal reports whether expr is (rooted at) a variable declared
// inside fn — including the blank identifier — so mutating it cannot
// leak iteration order outside the loop's own computation.
func isLocal(info *types.Info, expr ast.Expr, fn ast.Node) bool {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return true
			}
			obj := info.Uses[e]
			if obj == nil {
				obj = info.Defs[e]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End()
		case *ast.SelectorExpr:
			// Mutating a field reaches whatever the root refers to; a
			// selector rooted at a local pointer may still alias shared
			// state, but field writes through locally *declared* structs
			// stay local. Pointer-typed roots are treated as non-local.
			root := e.X
			if rt := info.Types[root].Type; rt != nil {
				if _, isPtr := rt.Underlying().(*types.Pointer); isPtr {
					return false
				}
			}
			expr = root
		case *ast.IndexExpr:
			// Element writes into a map/slice reach the backing store —
			// allowed when the container variable itself is declared in
			// fn (params included): building a local map or histogram
			// from map entries is order-insensitive. A container loaded
			// from a field (s.m[k] = v) may feed ordered consumers, so
			// it stays non-local.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
				expr = id
				continue
			}
			return false
		case *ast.StarExpr:
			return false
		default:
			return false
		}
	}
}
