package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HTMRegion polices code that runs inside a hardware-transaction window.
//
// On real TSX hardware, the code between _xbegin and _xend shares the
// transaction's cache footprint and abort surface: a heap allocation can
// touch allocator metadata lines shared with every other thread ("The
// Influence of Malloc Placement on TSX Hardware Transactional Memory"),
// a lock acquisition writes a contended word into the write set, a
// syscall or scheduler interaction aborts unconditionally, and anything
// that grows the footprint (fmt's reflection, channel machinery) burns
// capacity that Part-HTM's whole contribution is to conserve. The
// simulator will happily execute all of these — silently making the
// model optimistic — so the analyzer forbids them statically instead.
//
// A region is:
//
//   - the body of a function literal passed to (*htm.Engine).Execute,
//   - the statements of a function after a call to (*htm.Engine).Begin,
//     up to the first call to Commit or Cancel on the returned *htm.Txn
//     (or the end of the function),
//   - the body of any function declared with a *htm.Txn parameter (such
//     functions only make sense inside a window).
//
// Within a region — and within every module function reachable from it,
// found by the shared call-graph walk (callgraph.go), across package
// boundaries when the driver loaded the callee's package — the analyzer
// flags: time.Now, time.Since, time.Sleep; any call into fmt; channel
// operations, select, and go statements; sync primitive usage; and heap
// allocation via make, new, append, or &-composite literals. Deferred
// functions are exempt (they run after the window closes), as is the htm
// package itself (it is the simulated hardware, not code running on it).
// A function declaring its own *htm.Txn parameter is not re-walked from a
// caller: it is a region root of its own package's pass, so each finding
// is reported exactly once.
//
// The tooling packages get no rules of their own: a window calling into
// repro/internal/trace, prof, or obs is judged by the same walk as any
// other module code, so (*trace.Buffer).Record and (*prof.Shard).Record*
// pass on their bodies (plain stores into the calling thread's ring or
// shard), while trace.Now, the Sink methods, and the merged prof and obs
// queries are flagged where the clock read, lock, or allocation they
// reach is made — in the callee's own file, not at the call site.
//
// The one package with a list is repro/internal/domain, because the walk
// treats mem calls as the simulated hardware and would not see what the
// software commit helpers do through them: the pure topology accessors
// (Of, N, Ring, Wlocks) and the thread-private TxnState bookkeeping are
// htmsafe, while the commit helpers (ClaimTimestamp, Publish,
// ReleaseWlocks, SnapshotTimestamps, AllocLinesIn, Validate) spin, CAS
// shared metadata, or publish ring entries and are forbidden inside a
// window.
//
// `// parthtm:htmsafe` suppresses a finding.
var HTMRegion = &Analyzer{
	Name: "htmregion",
	Tag:  "htmsafe",
	Doc: "check that code reachable from a hardware-transaction window does " +
		"not allocate, lock, print, or touch the scheduler",
	Run: runHTMRegion,
}

func runHTMRegion(pass *Pass) {
	// The htm package is the hardware model itself: its internals run
	// "below" the transaction, with their own locking discipline.
	if pass.Pkg.Path() == htmPath {
		return
	}
	w := &regionWalker{pass: pass, visited: map[*FuncNode]bool{}}

	for _, f := range pass.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch e := n.(type) {
			case *ast.CallExpr:
				// Execute body literal: the whole literal is a region.
				fn := calleeFunc(pass.TypesInfo, e)
				if isMethodOf(fn, htmPath, "Engine", "Execute") {
					for _, arg := range e.Args {
						if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
							w.scan(pass.This, lit.Body)
						}
					}
				}
			case *ast.FuncDecl:
				if obj := pass.TypesInfo.Defs[e.Name]; obj != nil && e.Body != nil && sigHasTxnParam(obj.Type()) {
					w.scan(pass.This, e.Body)
					return false // body is fully covered; Begin inside would be nested
				}
			case *ast.FuncLit:
				if sigHasTxnParam(pass.TypesInfo.TypeOf(e)) {
					w.scan(pass.This, e.Body)
					return false
				}
			case *ast.BlockStmt:
				w.scanBeginWindows(e)
			}
			return true
		})
	}
}

// regionWalker scans region statements and walks the module call graph
// from them, reporting forbidden operations. The visited set is shared by
// every region root of the pass, so a function reachable from several
// windows is scanned — and reported — once.
type regionWalker struct {
	pass    *Pass
	visited map[*FuncNode]bool
}

// scanBeginWindows finds `x := eng.Begin(slot)` inside block and scans
// the statements from there to the first Commit/Cancel on x (or the end
// of the block). Only the statement list of the block containing Begin is
// window-scoped; nested blocks of those statements are scanned whole.
func (w *regionWalker) scanBeginWindows(block *ast.BlockStmt) {
	for i, stmt := range block.List {
		if !callsBegin(w.pass, stmt) {
			continue
		}
		for _, rest := range block.List[i+1:] {
			if endsWindow(w.pass, rest) {
				break
			}
			w.scan(w.pass.This, rest)
		}
		break
	}
}

// callsBegin reports whether stmt contains a call to (*htm.Engine).Begin.
func callsBegin(pass *Pass, stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isMethodOf(calleeFunc(pass.TypesInfo, call), htmPath, "Engine", "Begin") {
				found = true
			}
		}
		return !found
	})
	return found
}

// endsWindow reports whether stmt contains a Commit or Cancel call on an
// *htm.Txn — the `_xend` that closes the window.
func endsWindow(pass *Pass, stmt ast.Stmt) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calleeFunc(pass.TypesInfo, call)
			if isMethodOf(fn, htmPath, "Txn", "Commit") || isMethodOf(fn, htmPath, "Txn", "Cancel") {
				found = true
			}
		}
		return !found
	})
	return found
}

// scan checks one region node parsed under view and recurses into module
// callees, hopping package views as the walk crosses package boundaries.
func (w *regionWalker) scan(view *Package, region ast.Node) {
	pass := w.pass
	ast.Inspect(region, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.DeferStmt:
			// Deferred functions run after the window has closed (commit
			// or abort-unwind) — registration is cheap, skip the body.
			return false

		case *ast.GoStmt:
			pass.ReportfIn(view, e.Pos(), "go statement inside a hardware-transaction window: spawning a goroutine would abort a real transaction")
			return false

		case *ast.SelectStmt:
			pass.ReportfIn(view, e.Pos(), "select inside a hardware-transaction window: channel machinery aborts a real transaction")
			return false

		case *ast.SendStmt:
			pass.ReportfIn(view, e.Pos(), "channel send inside a hardware-transaction window: channel machinery aborts a real transaction")

		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				pass.ReportfIn(view, e.Pos(), "channel receive inside a hardware-transaction window: channel machinery aborts a real transaction")
			} else if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					pass.ReportfIn(view, e.Pos(), "heap allocation (&composite literal) inside a hardware-transaction window: allocator metadata shares cache lines with every thread; hoist the allocation before the window")
				}
			}

		case *ast.RangeStmt:
			if t := view.Info.Types[e.X].Type; t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					pass.ReportfIn(view, e.Pos(), "range over a channel inside a hardware-transaction window: channel machinery aborts a real transaction")
				}
			}

		case *ast.CallExpr:
			w.checkRegionCall(view, e)
		}
		return true
	})
}

// checkRegionCall classifies one call made inside a region.
func (w *regionWalker) checkRegionCall(view *Package, call *ast.CallExpr) {
	pass := w.pass

	// Builtins: allocation and channel close.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := view.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make", "new":
				pass.ReportfIn(view, call.Pos(), "%s inside a hardware-transaction window: heap allocation touches allocator state shared with every thread; hoist it before the window", id.Name)
			case "append":
				pass.ReportfIn(view, call.Pos(), "append inside a hardware-transaction window: growth reallocates on the hot path; pre-size the buffer outside the window")
			case "close":
				pass.ReportfIn(view, call.Pos(), "channel close inside a hardware-transaction window: channel machinery aborts a real transaction")
			}
			return
		}
	}

	fn := calleeFunc(view.Info, call)
	if fn == nil {
		return
	}
	switch funcPkgPath(fn) {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Sleep":
			pass.ReportfIn(view, call.Pos(), "time.%s inside a hardware-transaction window: a real transaction would abort on the timer/vDSO access", fn.Name())
		}
		return
	case "fmt":
		pass.ReportfIn(view, call.Pos(), "fmt.%s inside a hardware-transaction window: formatting allocates and may lock; log after the window closes", fn.Name())
		return
	case "sync":
		pass.ReportfIn(view, call.Pos(), "sync primitive (%s.%s) inside a hardware-transaction window: lock words join the transaction's write set and serialize every window on the same lock", recvTypeName(fn), fn.Name())
		return
	case "runtime":
		if fn.Name() == "Gosched" {
			pass.ReportfIn(view, call.Pos(), "runtime.Gosched inside a hardware-transaction window: yielding to the scheduler aborts a real transaction")
		}
		return
	case htmPath:
		// The simulated hardware itself: Read/Write/Work/Commit run below
		// the transaction and are never walked into.
		return
	case memPath:
		// The memory substrate is the other half of the simulated hardware:
		// a mem.Memory call from a window models a deliberate unmonitored
		// access (e.g. reading a domain timestamp non-transactionally), and
		// the line locks and Gosched retries inside it are simulator
		// plumbing with no counterpart in the hardware being modeled.
		return
	case domainPath:
		// The sharded-memory-domain substrate splits cleanly: the topology
		// accessors (Of, N, Ring, Wlocks) are pure reads of immutable
		// routing state and the TxnState methods touch only the calling
		// thread's footprint masks — both htmsafe. The software-commit
		// helpers are the opposite: ClaimTimestamp spins on a CAS,
		// Publish stores a whole ring entry that validators spin on,
		// ReleaseWlocks RMWs shared signature words, and AllocLinesIn
		// mutates the allocator — inside a window they would put hotly
		// contended metadata into the hardware read/write sets (instant
		// conflict aborts on real TSX) or, worse, publish state that the
		// enclosing window may yet roll back. They belong between
		// windows, on the software commit path. The walk cannot see this
		// for itself — they do it through mem calls, which it treats as
		// the hardware — hence the list.
		if isMethodOf(fn, domainPath, "Domains", "Of") ||
			isMethodOf(fn, domainPath, "Domains", "N") ||
			isMethodOf(fn, domainPath, "Domains", "Ring") ||
			isMethodOf(fn, domainPath, "Domains", "Wlocks") ||
			isMethodOf(fn, domainPath, "TxnState", "Shard") ||
			isMethodOf(fn, domainPath, "TxnState", "Count") ||
			isMethodOf(fn, domainPath, "TxnState", "Reset") {
			return
		}
		pass.ReportfIn(view, call.Pos(), "domain.%s inside a hardware-transaction window: the cross-domain software-commit helpers spin, CAS shared metadata, or publish ring entries — run them between windows; only the Of/N/Ring/Wlocks accessors and TxnState bookkeeping are htmsafe", fn.Name())
		return
	}

	// Module callee with a known declaration: walk into it (memoized;
	// cycles terminate, multi-root reachability reports once). A callee
	// declaring its own *htm.Txn parameter is a region root of its own
	// package's pass and is not re-walked here.
	if node := pass.Prog.FuncNode(fn); node != nil && !w.visited[node] {
		if sigHasTxnParam(node.Fn.Type()) {
			return
		}
		w.visited[node] = true
		w.scan(node.Pkg, node.Decl.Body)
	}
}

// recvTypeName names fn's receiver type ("Mutex"), or its package for
// plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "sync"
	}
	if named := namedType(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return "sync"
}
