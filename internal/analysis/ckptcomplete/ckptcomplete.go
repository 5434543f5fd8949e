// Package ckptcomplete proves checkpoint field coverage at compile
// time: for every type implementing ckpt.Saver, every struct field must
// be touched by SaveState (serialized, or structurally summarized for
// the digest) — or carry an explicit //simlint:ckptskip <reason>
// exemption on its declaration.
//
// Restore replays to the checkpoint cycle and compares each
// component's SaveState digest against the file, so that comparison is
// only as complete as SaveState. A field SaveState misses would let a
// divergent replay pass the audit unnoticed; this analyzer turns the
// omission into a CI failure at the field declaration.
//
// The proof follows calls: SaveState may delegate to helpers, so the
// analyzer summarizes every function of the package (fields touched,
// static callees) and unions the summaries over the call graph reachable
// from each SaveState, within a bounded depth.
//
// Only calls within the package are followed. A function in another
// package cannot select fields of a type declared here without importing
// this package, and this package calling it would then be an import
// cycle, so cross-package summaries could never add a covered field.
package ckptcomplete

import (
	"go/ast"
	"go/types"
	"strings"

	"gpues/internal/analysis"
)

// Analyzer is the checkpoint field-coverage check.
var Analyzer = &analysis.Analyzer{
	Name: "ckptcomplete",
	Doc: "prove every field of a ckpt.Saver type is covered by SaveState " +
		"or exempted with //simlint:ckptskip <reason>",
	Run: run,
}

// summary records what one function of the package contributes to the
// coverage proof: which struct fields it touches, grouped by the owning
// named type, and which functions of the same package it statically
// calls.
type summary struct {
	// fields maps a type to the names of its top-level fields the
	// function reads or writes.
	fields map[*types.TypeName][]string
	// callees are the package's functions and methods this one calls.
	callees []*types.Func
}

func run(pass *analysis.Pass) error {
	// Phase 1: summarize every declared function in the package.
	local := map[*types.Func]*summary{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				local[obj] = summarize(pass, fn)
			}
		}
	}

	// Phase 2: check every Saver type declared in this package.
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				save := saveMethod(named)
				if save == nil {
					continue
				}
				checkType(pass, named, st, save, local)
			}
		}
	}
	return nil
}

// summarize walks one function body collecting field accesses and
// static callees within the package.
func summarize(pass *analysis.Pass, fn *ast.FuncDecl) *summary {
	sum := &summary{fields: map[*types.TypeName][]string{}}
	seenField := map[*types.TypeName]map[string]bool{}
	seenCallee := map[*types.Func]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := pass.TypesInfo.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			named, ok := recv.(*types.Named)
			if !ok {
				return true
			}
			// Index()[0] is the top-level field of the receiver type —
			// for promoted fields that is the embedded field itself,
			// which is exactly the coverage unit.
			idx := sel.Index()
			stru, ok := named.Underlying().(*types.Struct)
			if !ok || len(idx) == 0 || idx[0] >= stru.NumFields() {
				return true
			}
			key := named.Obj()
			name := stru.Field(idx[0]).Name()
			if seenField[key] == nil {
				seenField[key] = map[string]bool{}
			}
			if !seenField[key][name] {
				seenField[key][name] = true
				sum.fields[key] = append(sum.fields[key], name)
			}
		case *ast.CallExpr:
			callee := analysis.CalleeFunc(pass.TypesInfo, n)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			// Methods of generic types resolve to their instantiation;
			// the summary is keyed by the declared method.
			callee = callee.Origin()
			if !seenCallee[callee] {
				seenCallee[callee] = true
				sum.callees = append(sum.callees, callee)
			}
		}
		return true
	})
	return sum
}

// saveMethod returns the type's SaveState(*ckpt.Writer) method — the
// one method that makes a type a ckpt.Saver — or nil.
func saveMethod(named *types.Named) *types.Func {
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		sig := m.Type().(*types.Signature)
		if m.Name() == "SaveState" && sig.Params().Len() == 1 && isCkptWriter(sig.Params().At(0).Type()) {
			return m
		}
	}
	return nil
}

// isCkptWriter reports whether t is *ckpt.Writer.
func isCkptWriter(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Writer" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/ckpt")
}

// maxDepth bounds the call-graph walk from SaveState; checkpoint
// serialization helpers are shallow, so a deep chain means recursion or
// an accidental walk into unrelated code.
const maxDepth = 8

// coveredFields unions the field accesses of every function reachable
// from root (depth-bounded) for the given type.
func coveredFields(root *types.Func, key *types.TypeName, local map[*types.Func]*summary) map[string]bool {
	covered := map[string]bool{}
	type item struct {
		fn    *types.Func
		depth int
	}
	visited := map[*types.Func]bool{}
	queue := []item{{root, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if visited[it.fn] {
			continue
		}
		visited[it.fn] = true
		sum, ok := local[it.fn]
		if !ok {
			continue
		}
		for _, name := range sum.fields[key] {
			covered[name] = true
		}
		if it.depth >= maxDepth {
			continue
		}
		for _, callee := range sum.callees {
			queue = append(queue, item{callee, it.depth + 1})
		}
	}
	return covered
}

// checkType applies the coverage proof to one Saver type.
func checkType(pass *analysis.Pass, named *types.Named, st *ast.StructType,
	save *types.Func, local map[*types.Func]*summary) {
	saved := coveredFields(save, named.Obj(), local)
	tname := named.Obj().Name()

	for _, field := range st.Fields.List {
		skip, reason := ckptskip(field)
		if skip && strings.TrimSpace(reason) == "" {
			pass.Reportf(field.Pos(), "//simlint:ckptskip needs a reason: say why %s's field needs no serialization", tname)
			continue
		}
		names := fieldNames(field)
		for _, name := range names {
			if name == "_" {
				continue
			}
			// An exempted field's reason documents why it needs no digest.
			if !skip && !saved[name] {
				pass.Reportf(field.Pos(), "field %s.%s is not covered by SaveState: serialize it or exempt it with //simlint:ckptskip <reason>", tname, name)
			}
		}
	}
}

// fieldNames lists the names a field declaration introduces (the type
// name itself for embedded fields).
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		names := make([]string, len(field.Names))
		for i, id := range field.Names {
			names[i] = id.Name
		}
		return names
	}
	// Embedded field: strip pointer and qualifier.
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	}
	return nil
}

// ckptskip reports whether the field carries a //simlint:ckptskip
// directive (in its doc comment or trailing line comment) and returns
// the reason.
func ckptskip(field *ast.Field) (ok bool, reason string) {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if verb, args := analysis.DirectiveOf(c); verb == "ckptskip" {
				return true, args
			}
		}
	}
	return false, ""
}
