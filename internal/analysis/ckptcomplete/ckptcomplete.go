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
// The proof is interprocedural: SaveState may delegate to helper
// methods (in this package or another), so the analyzer summarizes
// every function's field accesses as an exported fact and unions the
// summaries over the static call graph reachable from each SaveState,
// within a bounded depth.
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
	Run:       run,
	FactTypes: []analysis.Fact{(*AccessFact)(nil)},
}

// AccessFact summarizes one function for the coverage proof: which
// struct fields it touches, grouped by the owning named type, and which
// functions it statically calls (so the proof can follow SaveState into
// helpers across package boundaries).
type AccessFact struct {
	// Fields maps a type key ("pkgpath\x00TypeName") to the names of
	// that type's top-level fields the function reads or writes.
	Fields map[string][]string
	// Callees are the functions and methods this one statically calls.
	Callees []analysis.FuncRef
}

// AFact marks AccessFact as a serializable fact.
func (*AccessFact) AFact() {}

// typeKey names a type across fact boundaries.
func typeKey(named *types.Named) string {
	obj := named.Obj()
	pkg := ""
	if obj.Pkg() != nil {
		pkg = obj.Pkg().Path()
	}
	return pkg + "\x00" + obj.Name()
}

func run(pass *analysis.Pass) error {
	// Phase 1: summarize every declared function in the package and
	// export the summaries as facts.
	local := map[types.Object]*AccessFact{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fn.Name]
			if obj == nil {
				continue
			}
			fact := summarize(pass, fn)
			local[obj] = fact
			pass.ExportObjectFact(obj, fact)
		}
	}

	// Phase 2: check every Saver type declared in this package.
	imports := importClosure(pass.Pkg)
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
				checkType(pass, named, st, save, local, imports)
			}
		}
	}
	return nil
}

// summarize walks one function body collecting field accesses and
// static callees.
func summarize(pass *analysis.Pass, fn *ast.FuncDecl) *AccessFact {
	fact := &AccessFact{Fields: map[string][]string{}}
	seenField := map[string]map[string]bool{}
	seenCallee := map[analysis.FuncRef]bool{}
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
			key := typeKey(named)
			name := stru.Field(idx[0]).Name()
			if seenField[key] == nil {
				seenField[key] = map[string]bool{}
			}
			if !seenField[key][name] {
				seenField[key][name] = true
				fact.Fields[key] = append(fact.Fields[key], name)
			}
		case *ast.CallExpr:
			callee := analysis.CalleeFunc(pass.TypesInfo, n)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if ref, ok := analysis.FuncRefOf(callee); ok && !seenCallee[ref] {
				seenCallee[ref] = true
				fact.Callees = append(fact.Callees, ref)
			}
		}
		return true
	})
	return fact
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
// from root (depth-bounded) for the given type key.
func coveredFields(pass *analysis.Pass, root *types.Func, key string,
	local map[types.Object]*AccessFact, imports map[string]*types.Package) map[string]bool {
	covered := map[string]bool{}
	type item struct {
		obj   types.Object
		depth int
	}
	visited := map[types.Object]bool{}
	queue := []item{{root, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if visited[it.obj] {
			continue
		}
		visited[it.obj] = true
		fact, ok := local[it.obj]
		if !ok {
			var imported AccessFact
			if !pass.ImportObjectFact(it.obj, &imported) {
				continue
			}
			fact = &imported
		}
		for _, name := range fact.Fields[key] {
			covered[name] = true
		}
		if it.depth >= maxDepth {
			continue
		}
		for _, ref := range fact.Callees {
			if obj := resolveRef(pass, ref, imports); obj != nil {
				queue = append(queue, item{obj, it.depth + 1})
			}
		}
	}
	return covered
}

// resolveRef maps a FuncRef back to a types.Object in the current
// type-checking session.
func resolveRef(pass *analysis.Pass, ref analysis.FuncRef, imports map[string]*types.Package) types.Object {
	pkgPath, objPath := ref.Split()
	var pkg *types.Package
	if pkgPath == pass.Pkg.Path() {
		pkg = pass.Pkg
	} else {
		pkg = imports[pkgPath]
	}
	if pkg == nil {
		return nil
	}
	obj, err := analysis.ResolveObjectPath(pkg, objPath)
	if err != nil {
		return nil
	}
	return obj
}

// importClosure indexes the package's transitive imports by path.
func importClosure(pkg *types.Package) map[string]*types.Package {
	out := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		for _, imp := range p.Imports() {
			if out[imp.Path()] != nil {
				continue
			}
			out[imp.Path()] = imp
			walk(imp)
		}
	}
	walk(pkg)
	return out
}

// checkType applies the coverage proof to one Saver type.
func checkType(pass *analysis.Pass, named *types.Named, st *ast.StructType,
	save *types.Func, local map[types.Object]*AccessFact, imports map[string]*types.Package) {
	saved := coveredFields(pass, save, typeKey(named), local, imports)
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
