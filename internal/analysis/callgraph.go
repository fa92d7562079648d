// Interprocedural infrastructure shared by the analyzers: a whole-module
// Program view over every package one Load produced, and a declaration
// index that resolves callees across package boundaries. htmregion's
// reachability walk and txpure's local-indirection handling are built on
// this layer.
//
// One wrinkle shapes the whole design: every package is type-checked in
// its own universe (load.go checks each package against gc export data),
// so the *types.Func observed at a call site in package A is not
// pointer-identical to the *types.Func defined when package B was checked
// from source. Declarations are therefore indexed by a stable symbol key
// (package path, receiver, name) rather than by object identity.
package analysis

import (
	"go/ast"
	"go/types"
)

// A FuncNode is one function declaration in the program, bundled with the
// package view (file set, type info, annotations) it was parsed under —
// everything a walker needs to scan the body and report into the right
// file with the right suppression context.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	Fn   *types.Func
}

// A Program is the whole-module view of one load: every analyzed package,
// with a cross-package function-declaration index. The driver builds one
// Program for all matched packages, giving the analyzers module-wide
// reach.
type Program struct {
	byPath map[string]*Package
	funcs  map[string]*FuncNode
	notes  map[*Package]annotations
}

// NewProgram indexes pkgs into a Program.
func NewProgram(pkgs ...*Package) *Program {
	pr := &Program{
		byPath: map[string]*Package{},
		funcs:  map[string]*FuncNode{},
		notes:  map[*Package]annotations{},
	}
	for _, p := range pkgs {
		pr.byPath[p.PkgPath] = p
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					pr.funcs[funcKey(fn)] = &FuncNode{Pkg: p, Decl: fd, Fn: fn}
				}
			}
		}
	}
	return pr
}

// Package returns the indexed package with the given import path, or nil.
func (pr *Program) Package(path string) *Package { return pr.byPath[path] }

// FuncNode resolves fn — observed in any package's type info — to its
// declaration in the program, or nil when the defining package was not
// loaded (standard library, or outside the analyzed pattern set).
func (pr *Program) FuncNode(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	return pr.funcs[funcKey(fn)]
}

// funcKey is the cross-universe identity of a function: declarations and
// uses of the same function type-checked in different package universes
// map to the same key. Generic instantiations collapse to their origin.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := namedType(sig.Recv().Type()); named != nil {
			return funcPkgPath(fn) + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return funcPkgPath(fn) + "." + fn.Name()
}

// notesFor returns (building on first use) the annotation index of one
// program package, so cross-package diagnostics honour the target file's
// parthtm annotations exactly as same-package ones do.
func (pr *Program) notesFor(p *Package) annotations {
	if n, ok := pr.notes[p]; ok {
		return n
	}
	n := collectAnnotations(p.Fset, p.Files)
	pr.notes[p] = n
	return n
}

// localFuncBindings indexes every binding of a local variable to a
// function literal under root: `f := func() {...}`, `var f = func() {...}`,
// and plain reassignment `f = func() {...}`. A variable bound more than
// once maps to all its literals — a caller that walks "the" bound body
// must walk every candidate to stay conservative.
func localFuncBindings(info *types.Info, root ast.Node) map[*types.Var][]*ast.FuncLit {
	bindings := map[*types.Var][]*ast.FuncLit{}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		lit, ok := ast.Unparen(rhs).(*ast.FuncLit)
		if !ok {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj, _ := info.Defs[id].(*types.Var)
		if obj == nil {
			obj, _ = info.Uses[id].(*types.Var)
		}
		if obj != nil {
			bindings[obj] = append(bindings[obj], lit)
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range e.Rhs {
				if i < len(e.Lhs) {
					bind(e.Lhs[i], rhs)
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range e.Values {
				if i < len(e.Names) {
					bind(e.Names[i], rhs)
				}
			}
		}
		return true
	})
	return bindings
}

// sigHasTxnParam reports whether signature type t declares a *htm.Txn
// parameter — the mark of a function that is itself a region root and is
// scanned when its own package's pass runs.
func sigHasTxnParam(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isNamed(params.At(i).Type(), htmPath, "Txn") {
			return true
		}
	}
	return false
}
