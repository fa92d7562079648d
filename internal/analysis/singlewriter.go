package analysis

import (
	"go/ast"
	"go/types"
)

// SingleWriter enforces tm.Counter's single-writer contract.
//
// Counter.Inc and Counter.Add are a plain load+store pair on a private
// cache line: they are only safe when the calling goroutine owns the
// enclosing Shard. The analyzer therefore requires the receiver of every
// Inc/Add call to be a Counter field of a tm.Shard whose origin it can
// trace to an owner-bound source:
//
//   - the result of (*tm.Stats).Shard(thread), (*exec.Thread).Shard(), or
//     (*domain.TxnState).Shard() (a TxnState is owned by one thread, and
//     its shard pointer is bound to that owner at construction),
//   - a function parameter or method receiver of type *tm.Shard (the
//     caller vouches for ownership),
//   - a struct field of type *tm.Shard (per-thread cached pointers).
//
// It flags shards reached by ranging over a shard slice, by indexing into
// one with a loop variable, or counters stored outside a Shard entirely
// (an aggregate shared by every thread). `// parthtm:owner` suppresses a
// finding where ownership holds for reasons the tracer cannot see.
var SingleWriter = &Analyzer{
	Name: "singlewriter",
	Tag:  "owner",
	Doc: "check that tm.Counter.Inc/Add are only called on a shard owned by " +
		"the calling thread (tm.Counter is single-writer)",
	Run: runSingleWriter,
}

func runSingleWriter(pass *Pass) {
	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if !isMethodOf(fn, tmPath, "Counter", "Inc") && !isMethodOf(fn, tmPath, "Counter", "Add") {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			checkCounterWrite(pass, sel.X, fn.Name(), stack)
			return true
		})
	}
}

// checkCounterWrite validates one Inc/Add receiver (the Counter
// expression, i.e. `<shard>.<field>` in the well-formed case).
func checkCounterWrite(pass *Pass, counter ast.Expr, method string, stack []ast.Node) {
	counter = ast.Unparen(counter)

	// The Counter must be a field selected from a tm.Shard. Anything else
	// — a package-level Counter, a Counter field of some other struct —
	// is an aggregate that several threads would write concurrently.
	csel, ok := counter.(*ast.SelectorExpr)
	if !ok {
		pass.Reportf(counter.Pos(),
			"tm.Counter.%s on a counter stored outside a tm.Shard: Counter is single-writer and must live in a per-thread shard", method)
		return
	}
	fieldSel, ok := pass.TypesInfo.Selections[csel]
	if !ok || !fieldOfShard(fieldSel) {
		pass.Reportf(counter.Pos(),
			"tm.Counter.%s on a counter stored outside a tm.Shard: Counter is single-writer and must live in a per-thread shard", method)
		return
	}

	shard := ast.Unparen(csel.X)
	reportBadOrigin(pass, shard, method, stack, 0)
}

// fieldOfShard reports whether sel selects a field declared on tm.Shard.
func fieldOfShard(sel *types.Selection) bool {
	if sel.Kind() != types.FieldVal {
		return false
	}
	return isNamed(sel.Recv(), tmPath, "Shard")
}

// maxOriginDepth bounds alias chasing through local assignments.
const maxOriginDepth = 8

// reportBadOrigin traces how the shard expression was obtained and
// reports when the origin cannot belong to the calling thread.
func reportBadOrigin(pass *Pass, shard ast.Expr, method string, stack []ast.Node, depth int) {
	if depth > maxOriginDepth {
		return
	}
	shard = ast.Unparen(shard)
	if star, ok := shard.(*ast.StarExpr); ok {
		shard = ast.Unparen(star.X)
	}

	switch e := shard.(type) {
	case *ast.CallExpr:
		fn := calleeFunc(pass.TypesInfo, e)
		if isMethodOf(fn, tmPath, "Stats", "Shard") ||
			isMethodOf(fn, execPath, "Thread", "Shard") ||
			isMethodOf(fn, domainPath, "TxnState", "Shard") {
			return // the sanctioned owner-bound accessors
		}
		// Some other call returning a shard: nothing ties it to this
		// thread, but nothing proves sharing either. Trust it — the
		// function's own body is checked where it obtains the shard.
		return

	case *ast.SelectorExpr:
		// A struct field of shard type (e.g. exec.Thread.sh): a cached
		// per-thread pointer. Ownership was established where the field
		// was populated.
		return

	case *ast.IndexExpr:
		pass.Reportf(shard.Pos(),
			"tm.Counter.%s on a shard indexed out of a shard slice: only the owner thread may write; use (*tm.Stats).Shard(thread)", method)
		return

	case *ast.Ident:
		obj, _ := pass.TypesInfo.Uses[e].(*types.Var)
		if obj == nil {
			return
		}
		if obj.Parent() == pass.Pkg.Scope() {
			pass.Reportf(shard.Pos(),
				"tm.Counter.%s on a package-level shard shared by every thread: Counter is single-writer", method)
			return
		}
		fn := enclosingFunc(stack)
		if fn == nil {
			return
		}
		if isParamOrReceiver(pass, fn, obj) {
			return // the caller vouches for ownership
		}
		// Chase the local variable's defining assignments.
		checkLocalShardOrigin(pass, fn, obj, method, stack, depth)
	}
}

// isParamOrReceiver reports whether obj is a parameter or receiver of the
// function node fn.
func isParamOrReceiver(pass *Pass, fn ast.Node, obj *types.Var) bool {
	var ft *ast.FuncType
	var recv *ast.FieldList
	switch f := fn.(type) {
	case *ast.FuncDecl:
		ft, recv = f.Type, f.Recv
	case *ast.FuncLit:
		ft = f.Type
	}
	match := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if pass.TypesInfo.Defs[name] == obj {
					return true
				}
			}
		}
		return false
	}
	return match(recv) || (ft != nil && match(ft.Params))
}

// checkLocalShardOrigin inspects every assignment that defines obj inside
// fn and flags origins that cannot be owner-bound: range clauses over a
// shard set, and indexed loads.
func checkLocalShardOrigin(pass *Pass, fn ast.Node, obj *types.Var, method string, stack []ast.Node, depth int) {
	ast.Inspect(fn, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			for _, lhs := range []ast.Expr{s.Key, s.Value} {
				id, ok := lhs.(*ast.Ident)
				if ok && (pass.TypesInfo.Defs[id] == obj || pass.TypesInfo.Uses[id] == obj) {
					pass.Reportf(id.Pos(),
						"tm.Counter.%s on a shard obtained by ranging over all shards: only the owner thread may write", method)
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || (pass.TypesInfo.Defs[id] != obj && pass.TypesInfo.Uses[id] != obj) {
					continue
				}
				if i < len(s.Rhs) && len(s.Lhs) == len(s.Rhs) {
					reportBadOrigin(pass, s.Rhs[i], method, stack, depth+1)
				}
			}
		}
		return true
	})
}
