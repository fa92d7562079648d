package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TxPure enforces the purity contract on transaction bodies.
//
// A body passed to tm.System.Atomic (or run as an exec.Txn level) may be
// executed several times: every aborted attempt runs the body again, and
// partial effects of an aborted attempt must not influence the next one.
// tm.Tx's doc states the rule — "it must be a pure function of its inputs
// and the values it Reads" — and this analyzer checks the part of it the
// compiler can see:
//
//   - a captured variable that the body both reads and writes carries
//     state across attempts (a classic `sum += tx.Read(a)` accumulates
//     garbage from aborted runs) — every write to such a variable is
//     flagged. Write-only captures are allowed: they are out-parameters,
//     overwritten wholesale by whichever attempt commits.
//   - direct loads/stores through mem.Memory bypass the transaction
//     entirely (no monitoring, no buffering, and strong atomicity will
//     doom hardware transactions that touch the same lines) — every
//     mem.Memory access inside a body is flagged.
//   - package-level mutable state read inside a body makes the body's
//     result depend on values no Tx ever read — reads and writes of
//     package-level variables inside bodies are flagged.
//
// A body that calls a locally bound function value (`f := func() {...}`
// somewhere in the enclosing function, then `f()` inside the body) is
// checked through that one level of indirection: the bound literal's
// statements are part of the body for every rule above, and a variable
// captured by the bound literal from the enclosing function counts as a
// capture of the body.
//
// Bodies are recognized structurally: every function literal whose
// parameter list includes a tm.Tx, and every literal installed in an
// exec.Txn level (Fast/Mid/Slow or assigned to those fields).
// `// parthtm:impure` suppresses a finding where the impurity is
// deliberate and retry-safe.
var TxPure = &Analyzer{
	Name: "txpure",
	Tag:  "impure",
	Doc: "check that transaction bodies route shared-memory access through " +
		"tm.Tx (bodies may rerun on abort and must be pure)",
	Run: runTxPure,
}

func runTxPure(pass *Pass) {
	for _, f := range pass.Files {
		bindings := localFuncBindings(pass.TypesInfo, f)
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			if !isTxBody(pass.TypesInfo, lit) && !isExecLevel(pass.TypesInfo, lit, stack) {
				return true
			}
			checkBody(pass, lit, bindings)
			// Nested literals inside the body are part of the body and
			// already covered by checkBody's single walk; do not re-enter.
			return false
		})
	}
}

// isTxBody reports whether lit takes a tm.Tx parameter — the signature of
// every workload transaction body (func(x tm.Tx)).
func isTxBody(info *types.Info, lit *ast.FuncLit) bool {
	sig, ok := info.Types[lit].Type.(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isNamed(params.At(i).Type(), tmPath, "Tx") {
			return true
		}
	}
	return false
}

// isExecLevel reports whether lit is installed as an exec.Txn level: a
// Fast/Mid/Slow field of a composite literal of type exec.Txn, or the RHS
// of an assignment to such a field.
func isExecLevel(info *types.Info, lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.KeyValueExpr:
		if parent.Value != lit {
			return false
		}
		key, ok := parent.Key.(*ast.Ident)
		if !ok || !isLevelName(key.Name) || len(stack) < 2 {
			return false
		}
		comp, ok := stack[len(stack)-2].(*ast.CompositeLit)
		return ok && isNamed(info.Types[comp].Type, execPath, "Txn")
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if rhs != lit || i >= len(parent.Lhs) {
				continue
			}
			sel, ok := ast.Unparen(parent.Lhs[i]).(*ast.SelectorExpr)
			if !ok || !isLevelName(sel.Sel.Name) {
				continue
			}
			if s, ok := info.Selections[sel]; ok && isNamed(s.Recv(), execPath, "Txn") {
				return true
			}
		}
	}
	return false
}

func isLevelName(name string) bool {
	switch name {
	case "Fast", "Mid", "Slow":
		return true
	}
	return false
}

// checkBody applies the purity rules to one transaction-body literal.
// bindings indexes the file's local `f := func() {...}` definitions: a
// body calling such an f is checked through that single level of
// indirection — the bound literals become additional body segments.
func checkBody(pass *Pass, lit *ast.FuncLit, bindings map[*types.Var][]*ast.FuncLit) {
	info := pass.TypesInfo

	// The body plus every locally bound literal it calls (one level).
	segments := []*ast.FuncLit{lit}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		obj, _ := info.Uses[id].(*types.Var)
		for _, bound := range bindings[obj] {
			seen := false
			for _, s := range segments {
				if s == bound {
					seen = true
				}
			}
			// A literal nested inside the body is already part of its
			// segment's walk; only out-of-body bindings add segments.
			if !seen && (bound.Pos() < lit.Pos() || bound.Pos() > lit.End()) {
				segments = append(segments, bound)
			}
		}
		return true
	})

	inSegments := func(pos token.Pos) bool {
		for _, s := range segments {
			if s.Pos() <= pos && pos <= s.End() {
				return true
			}
		}
		return false
	}
	captured := func(obj *types.Var) bool {
		if obj == nil || obj.IsField() {
			return false
		}
		// Declared outside every body segment, not package-level (those
		// are handled separately), and actually a variable of the
		// enclosing function — i.e. a closure capture.
		if obj.Parent() == nil || obj.Parent().Parent() == types.Universe {
			return false
		}
		return !inSegments(obj.Pos())
	}
	pkgLevel := func(obj *types.Var) bool {
		return obj != nil && !obj.IsField() && obj.Parent() != nil && obj.Parent().Parent() == types.Universe
	}

	// First walk: mark the identifiers that appear in write position
	// (assignment LHS roots, ++/--, and address-takes, which open an
	// unseen write path). An augmented assignment (`x += ...`) is both.
	writeIdents := map[*ast.Ident]bool{}
	readAlso := map[*ast.Ident]bool{}
	markWrite := func(e ast.Expr, alsoRead bool) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			writeIdents[id] = true
			if alsoRead {
				readAlso[id] = true
			}
		}
	}
	for _, seg := range segments {
		ast.Inspect(seg.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.AssignStmt:
				augmented := e.Tok != token.ASSIGN && e.Tok != token.DEFINE
				for _, lhs := range e.Lhs {
					markWrite(lhs, augmented)
				}
			case *ast.IncDecStmt:
				markWrite(e.X, true)
			case *ast.UnaryExpr:
				if e.Op == token.AND {
					markWrite(e.X, true)
				}
			}
			return true
		})
	}

	// Second walk: classify every identifier use and check calls.
	reads := map[*types.Var][]ast.Node{}
	writes := map[*types.Var][]ast.Node{}
	for _, seg := range segments {
		ast.Inspect(seg.Body, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				checkMemAccess(pass, e)
			case *ast.Ident:
				obj, _ := info.Uses[e].(*types.Var)
				if obj == nil {
					return true
				}
				if writeIdents[e] {
					writes[obj] = append(writes[obj], e)
					if readAlso[e] {
						reads[obj] = append(reads[obj], e)
					}
				} else {
					reads[obj] = append(reads[obj], e)
				}
			}
			return true
		})
	}

	for obj, ws := range writes {
		if !captured(obj) && !pkgLevel(obj) {
			continue
		}
		if pkgLevel(obj) {
			for _, w := range ws {
				pass.Reportf(w.Pos(),
					"transaction body writes package-level variable %q: bodies may rerun on abort and must not mutate shared state outside the Tx", obj.Name())
			}
			continue
		}
		if len(reads[obj]) == 0 {
			continue // write-only out-parameter: overwritten per attempt
		}
		for _, w := range ws {
			pass.Reportf(w.Pos(),
				"transaction body reads and writes captured variable %q: state carried across aborted attempts breaks the pure-function contract of tm.Tx", obj.Name())
		}
	}
	// Package-level reads: constants never reach here (they are not
	// *types.Var), so any hit is genuinely mutable state.
	for obj, rs := range reads {
		if !pkgLevel(obj) || len(writes[obj]) > 0 {
			continue // write case already reported above
		}
		for _, r := range rs {
			pass.Reportf(r.Pos(),
				"transaction body reads package-level mutable variable %q: the result would depend on state no Tx.Read observed", obj.Name())
		}
	}
}

// checkMemAccess flags direct mem.Memory traffic inside a body.
func checkMemAccess(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isNamed(sig.Recv().Type(), memPath, "Memory") {
		return
	}
	switch fn.Name() {
	case "Load", "Store", "CAS", "Add", "AndNot", "Or", "RawLoad", "RawStore":
		pass.Reportf(call.Pos(),
			"transaction body calls mem.Memory.%s directly: shared memory must be accessed through the tm.Tx parameter (unmonitored access breaks isolation and dooms hardware transactions)", fn.Name())
	}
}
