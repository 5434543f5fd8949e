// Package poolsafe flags use-after-release of pooled objects: once a
// value has been handed back to an object pool — a call to a function
// annotated //simlint:releases, or sync.Pool.Put — any later use of
// the same variable in the releasing function is the static analogue
// of a use-after-free. The pool may hand the object to another owner
// at any subsequent cycle, so reads observe recycled state and writes
// corrupt the next owner.
//
// The check is intraprocedural and block-ordered: it tracks uses in
// statements after the releasing statement within the same (or a
// nested) block, and stops tracking a variable once it is reassigned
// (e.g. re-acquired from the pool or set to nil).
package poolsafe

import (
	"go/ast"
	"go/types"

	"gpues/internal/analysis"
)

// Analyzer is the pool-safety check.
var Analyzer = &analysis.Analyzer{
	Name: "poolsafe",
	Doc: "flag uses of a pooled object after it was released " +
		"(//simlint:releases annotations and sync.Pool.Put mark the release points)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	releases := analysis.ReleaseFuncs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c := &checker{pass: pass, releases: releases}
				c.block(fn.Body)
			}
		}
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	releases map[types.Object]analysis.ReleaseSpec
}

// block scans one statement list in order. For every release call
// found in statement i, the released variable is hunted through
// statements i+1.. of the same list (descending into nested blocks);
// nested blocks are also scanned independently so releases inside them
// get the same treatment.
func (c *checker) block(b *ast.BlockStmt) {
	for i, stmt := range b.List {
		if _, isDefer := stmt.(*ast.DeferStmt); isDefer {
			continue // deferred releases run at return; nothing after them
		}
		for _, released := range c.releasesIn(stmt) {
			c.huntUses(released, b.List[i+1:])
		}
		// Recurse into nested statement lists for their own releases.
		ast.Inspect(stmt, func(n ast.Node) bool {
			if nb, ok := n.(*ast.BlockStmt); ok && nb != b {
				c.block(nb)
				return false
			}
			return true
		})
	}
}

// releasesIn collects the variables released by calls inside one
// statement. Only plain identifiers (including the receiver of a
// sync.Pool.Put-style method) are tracked; complex expressions cannot
// be matched reliably afterwards.
func (c *checker) releasesIn(stmt ast.Stmt) []types.Object {
	var out []types.Object
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false // a closure body runs later, not at this statement
		case *ast.BlockStmt:
			// A release inside a nested block (if/for body) may be
			// conditional; it is checked against that block's own
			// statement list when block() recurses, not against ours.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj := c.releasedBy(call); obj != nil {
			out = append(out, obj)
		}
		return true
	})
	return out
}

// releasedBy resolves which variable, if any, a call releases.
func (c *checker) releasedBy(call *ast.CallExpr) types.Object {
	var id *ast.Ident
	var sel *ast.SelectorExpr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id, sel = fun.Sel, fun
	default:
		return nil
	}
	fn, ok := c.pass.TypesInfo.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	// A method of an instantiated generic type is a distinct object;
	// its annotation sits on the declared one.
	fn = fn.Origin()
	// sync.Pool.Put releases its argument.
	if fn.Name() == "Put" && isSyncPoolMethod(fn) {
		if len(call.Args) == 1 {
			return identObj(c.pass, call.Args[0])
		}
		return nil
	}
	spec, ok := c.releases[fn]
	if !ok {
		return nil
	}
	if spec.Arg < 0 {
		// Receiver released: x.Release() frees x.
		if sel != nil {
			return identObj(c.pass, sel.X)
		}
		return nil
	}
	if spec.Arg < len(call.Args) {
		return identObj(c.pass, call.Args[spec.Arg])
	}
	return nil
}

func isSyncPoolMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

// identObj resolves expr to a plain variable object, or nil.
func identObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// huntUses walks the statements that follow a release in order,
// reporting every use of the released variable until a statement
// reassigns it (right-hand sides are still checked first: `x = x.next`
// after releasing x reads freed memory).
func (c *checker) huntUses(obj types.Object, rest []ast.Stmt) {
	for _, stmt := range rest {
		killed := false
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			for _, rhs := range s.Rhs {
				c.reportUses(obj, rhs)
			}
			for _, lhs := range s.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
					killed = true
				} else {
					c.reportUses(obj, lhs)
				}
			}
		default:
			c.reportUses(obj, stmt)
		}
		if killed {
			return
		}
	}
}

// reportUses reports each appearance of obj under node.
func (c *checker) reportUses(obj types.Object, node ast.Node) {
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == obj {
			c.pass.Reportf(id.Pos(), "use of %s after it was released to its pool: the pool may already have handed it to a new owner; copy what you need before the release (or reassign %s first)", id.Name, id.Name)
		}
		return true
	})
}
