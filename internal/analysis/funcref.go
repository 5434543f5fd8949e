package analysis

import (
	"go/ast"
	"go/types"
)

// CalleeFunc resolves a call expression to the named function or method
// it statically invokes, or nil for dynamic calls (function values,
// interface methods resolve to the interface method object), conversions
// and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
