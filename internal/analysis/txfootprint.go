package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"

	"repro/internal/htm"
	"repro/internal/mem"
)

// TxFootprint bounds every transaction body's memory footprint at vet
// time and classifies it against the simulated HTM capacity model.
//
// The paper's premise is that a transaction whose footprint exceeds
// best-effort HTM capacity can never commit in hardware: the write buffer
// is a set-associative L1 (htm.Config WriteSets × WriteWays, WriteLines
// total) and the read set tops out at ReadLinesHard monitored lines.
// Until now the repository discovered oversized transactions only at
// runtime, through tmprof's footprint histograms. This analyzer computes
// a conservative static bound on the distinct memory lines each tm.Tx /
// exec.Txn body reads and writes:
//
//   - every tm.Tx Read/Write/WriteLocal and htm.Txn Read/Write is one
//     access; its line contribution follows internal/mem geometry
//     (addresses are word indices, mem.LineWords words per line);
//   - an access whose address is invariant across its enclosing loops
//     contributes one line, however often the loops run;
//   - constant-bound loops multiply: an address affine in the loop
//     variable with word stride s over n iterations touches at most
//     min(n, s·(n−1)/LineWords + 2) distinct lines; non-affine addresses
//     are charged one line per iteration;
//   - calls are resolved through the shared call-graph summaries
//     (callgraph.go): a callee that receives a tm.Tx or *htm.Txn
//     contributes its own bound, multiplied by the caller's loop trips;
//     unknown callees (func values, unloaded packages, cycles) that
//     carry a transaction capability are unbounded;
//   - anything the estimator cannot bound — dynamic trip counts, range
//     over slices or maps — classifies the body *unbounded*.
//
// Classification against htm.DefaultConfig: a body whose write bound
// exceeds WriteLines (or read bound exceeds ReadLinesHard) must
// capacity-abort on the fast path every time and is flagged as such; a
// read bound past ReadLinesSoft or a write bound past half the write
// buffer likely aborts (set-associativity conflicts arrive well before
// the aggregate limit) and is flagged as likely. An unbounded body is
// flagged only when it declares no partition points (tm.Tx.Pause): Pause
// is the paper's prescription for oversized workloads — the partitioned
// path splits the body at those marks — so a pausing body has already
// opted in to resource management.
//
// `// parthtm:bigtx` suppresses a finding for intentionally oversized
// workloads (labyrinth-style region growth); the annotation is a claim
// that the body is expected to run on the partitioned or slow path. The
// static bounds of every body — including suppressed ones — are exported
// through FootprintBounds for the parthtm-vet -prof reconciliation mode,
// which cross-checks them against recorded tmprof footprint histograms.
var TxFootprint = &Analyzer{
	Name: "txfootprint",
	Tag:  "bigtx",
	Doc: "bound each transaction body's static read/write line footprint and " +
		"flag bodies that must or likely will capacity-abort on the fast path",
	Run: runTxFootprint,
}

// boundCap keeps line arithmetic far from int64 overflow while staying
// effectively infinite next to any real capacity limit.
const boundCap = int64(1) << 40

// A lineBound is a conservative count of distinct cache lines.
type lineBound struct {
	n         int64
	unbounded bool
}

func addBound(a, b lineBound) lineBound {
	if a.unbounded || b.unbounded {
		return lineBound{unbounded: true}
	}
	n := a.n + b.n
	if n > boundCap {
		n = boundCap
	}
	return lineBound{n: n}
}

// scaleBound multiplies a bound by k loop iterations (k < 0 = unbounded).
// Scaling zero stays zero: a loop that touches nothing costs nothing no
// matter how often it runs.
func scaleBound(b lineBound, k int64) lineBound {
	if !b.unbounded && b.n == 0 {
		return b
	}
	if b.unbounded || k < 0 {
		return lineBound{unbounded: true}
	}
	return lineBound{n: mulCap(b.n, k)}
}

func mulCap(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > boundCap/b {
		return boundCap
	}
	return a * b
}

// footFacts is one function's footprint summary: conservative bounds on
// distinct lines read and written per invocation, and whether it declares
// a partition point.
type footFacts struct {
	reads  lineBound
	writes lineBound
	pause  bool
}

// newFootTable builds the interprocedural summary table for prog.
func newFootTable(prog *Program) *SummaryTable[footFacts] {
	return NewSummaryTable(prog, func(n *FuncNode, callee func(*types.Func) (footFacts, bool)) footFacts {
		return scanFootprint(n.Pkg, n.Decl.Body, callee)
	})
}

// A txBody is one recognized transaction body in a package.
type txBody struct {
	lit  *ast.FuncLit
	kind string
}

// collectTxBodies finds every tm.Tx function literal and every exec.Txn
// Fast level literal in pkg's production files. Only the Fast level runs
// under HTM — Mid and Slow are software fallbacks with no capacity limit —
// so only Fast bodies are footprint-bounded.
func collectTxBodies(pkg *Package) []txBody {
	var bodies []txBody
	for _, f := range pkg.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			switch {
			case isTxBody(pkg.Info, lit):
				bodies = append(bodies, txBody{lit: lit, kind: "transaction body"})
				return false
			case execLevelName(pkg.Info, lit, stack) == "Fast":
				bodies = append(bodies, txBody{lit: lit, kind: "fast-path level body"})
				return false
			}
			return true
		})
	}
	return bodies
}

func runTxFootprint(pass *Pass) {
	table := newFootTable(pass.Prog)
	cfg := htm.DefaultConfig()
	for _, b := range collectTxBodies(pass.This) {
		facts := scanFootprint(pass.This, b.lit.Body, table.Of)
		switch {
		case facts.reads.unbounded || facts.writes.unbounded:
			if facts.pause {
				// The body declares partition points: the partitioned path
				// splits it at those marks, which is exactly the paper's
				// answer to unbounded footprints.
				continue
			}
			pass.Reportf(b.lit.Pos(),
				"%s has a statically unbounded line footprint and declares no partition points: best-effort HTM cannot commit an oversized transaction — add tm.Tx.Pause partition marks or annotate parthtm:bigtx with the slow-path rationale", b.kind)
		case facts.writes.n > int64(cfg.WriteLines):
			pass.Reportf(b.lit.Pos(),
				"%s statically writes up to %d distinct lines, exceeding the %d-line HTM write buffer: it must capacity-abort on the fast path every attempt — partition it (tm.Tx.Pause) or annotate parthtm:bigtx to route it to the fallback paths", b.kind, facts.writes.n, cfg.WriteLines)
		case facts.reads.n > int64(cfg.ReadLinesHard):
			pass.Reportf(b.lit.Pos(),
				"%s statically reads up to %d distinct lines, exceeding the %d-line hard read-set limit: it must capacity-abort on the fast path every attempt — partition it (tm.Tx.Pause) or annotate parthtm:bigtx", b.kind, facts.reads.n, cfg.ReadLinesHard)
		case facts.reads.n > int64(cfg.ReadLinesSoft):
			pass.Reportf(b.lit.Pos(),
				"%s statically reads up to %d distinct lines, past the %d-line soft read budget: capacity aborts are likely on the fast path — consider partitioning (tm.Tx.Pause) or annotate parthtm:bigtx", b.kind, facts.reads.n, cfg.ReadLinesSoft)
		case facts.writes.n > int64(cfg.WriteLines)/2:
			pass.Reportf(b.lit.Pos(),
				"%s statically writes up to %d distinct lines, past half the %d-line write buffer: set-associativity evictions make capacity aborts likely on the fast path — consider partitioning (tm.Tx.Pause) or annotate parthtm:bigtx", b.kind, facts.writes.n, cfg.WriteLines)
		}
	}
}

// BodyFootprint is one transaction body's static footprint bound, as
// exported for profile reconciliation (parthtm-vet -prof).
type BodyFootprint struct {
	Pos  token.Position
	Kind string

	// ReadLines/WriteLines are conservative distinct-line bounds, valid
	// when the corresponding Unbounded flag is false.
	ReadLines      int64
	WriteLines     int64
	ReadUnbounded  bool
	WriteUnbounded bool

	// Pause reports whether the body declares tm.Tx.Pause partition points.
	Pause bool
	// BigTx reports whether a parthtm:bigtx annotation covers the body.
	BigTx bool
}

// FootprintBounds computes the static footprint bound of every
// transaction body in the program — including bigtx-annotated ones, which
// still execute and still show up in recorded profiles.
func FootprintBounds(prog *Program) []BodyFootprint {
	table := newFootTable(prog)
	var out []BodyFootprint
	for _, pkg := range prog.Packages() {
		notes := prog.notesFor(pkg)
		for _, b := range collectTxBodies(pkg) {
			facts := scanFootprint(pkg, b.lit.Body, table.Of)
			out = append(out, BodyFootprint{
				Pos:            pkg.Fset.Position(b.lit.Pos()),
				Kind:           b.kind,
				ReadLines:      facts.reads.n,
				WriteLines:     facts.writes.n,
				ReadUnbounded:  facts.reads.unbounded,
				WriteUnbounded: facts.writes.unbounded,
				Pause:          facts.pause,
				BigTx:          notes.covers(pkg.Fset, b.lit.Pos(), TxFootprint.Tag),
			})
		}
	}
	return out
}

// ---- the estimator ----

// loopInfo is one enclosing loop's analysis: its trip-count bound, loop
// variable, and the set of variables it taints (declares, assigns, or
// takes the address of) — the variance oracle for addresses beneath it.
type loopInfo struct {
	trip    int64 // iteration bound; -1 = unbounded
	v       *types.Var
	tainted map[*types.Var]bool
}

// scanFootprint computes the footprint facts of one function or
// transaction body. callee resolves interprocedural summaries and reports
// ok=false for unknown bodies and cycles, which scan treats as unbounded
// when the callee carries a transaction capability.
func scanFootprint(view *Package, root ast.Node, callee func(*types.Func) (footFacts, bool)) footFacts {
	var facts footFacts
	loopIdx := map[ast.Node]*loopInfo{}
	loopsOf := func(stack []ast.Node) []*loopInfo {
		var out []*loopInfo
		for _, n := range stack {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				li := loopIdx[n]
				if li == nil {
					li = analyzeLoop(view, n)
					loopIdx[n] = li
				}
				out = append(out, li)
			}
		}
		return out
	}

	inspectStack(root, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Conversions are transparent: keep walking the operand.
		if tv, ok := view.Info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		fn := calleeFunc(view.Info, call)

		var arg0 ast.Expr
		if len(call.Args) > 0 {
			arg0 = call.Args[0]
		}
		switch {
		case isMethodOf(fn, tmPath, "Tx", "Read") || isMethodOf(fn, htmPath, "Txn", "Read"):
			facts.reads = addBound(facts.reads, accessLines(view, arg0, loopsOf(stack)))
			return true
		case isMethodOf(fn, tmPath, "Tx", "Write") || isMethodOf(fn, tmPath, "Tx", "WriteLocal") ||
			isMethodOf(fn, htmPath, "Txn", "Write"):
			facts.writes = addBound(facts.writes, accessLines(view, arg0, loopsOf(stack)))
			return true
		case isMethodOf(fn, tmPath, "Tx", "Pause"):
			facts.pause = true
			return true
		}
		if fn == nil {
			// Func-value call: unbounded only if its type could carry the
			// transaction into unknown code.
			if tv, ok := view.Info.Types[call.Fun]; ok && typeCarriesTx(tv.Type, 0) {
				facts.reads.unbounded = true
				facts.writes.unbounded = true
			}
			return true
		}
		switch funcPkgPath(fn) {
		case tmPath, htmPath:
			// Remaining model-internal methods (Work, Thread, Commit, …)
			// touch no workload lines.
			return true
		}
		if !funcCarriesTx(fn) {
			return true // cannot access transactional memory
		}
		sub, ok := callee(fn)
		if !ok {
			// Unknown body (not loaded, interface method) or a call cycle:
			// assume the worst.
			facts.reads.unbounded = true
			facts.writes.unbounded = true
			return true
		}
		k := tripProduct(loopsOf(stack))
		facts.reads = addBound(facts.reads, scaleBound(sub.reads, k))
		facts.writes = addBound(facts.writes, scaleBound(sub.writes, k))
		facts.pause = facts.pause || sub.pause
		return true
	})
	return facts
}

// funcCarriesTx reports whether fn's parameters can carry a transaction
// handle into its body.
func funcCarriesTx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if typeCarriesTx(params.At(i).Type(), 0) {
			return true
		}
	}
	return false
}

// typeCarriesTx reports whether t contains a tm.Tx or htm.Txn capability
// (bounded structural descent).
func typeCarriesTx(t types.Type, depth int) bool {
	if depth > 3 || t == nil {
		return false
	}
	if isNamed(t, tmPath, "Tx") || isNamed(t, htmPath, "Txn") {
		return true
	}
	switch u := types.Unalias(t).(type) {
	case *types.Pointer:
		return typeCarriesTx(u.Elem(), depth+1)
	case *types.Slice:
		return typeCarriesTx(u.Elem(), depth+1)
	case *types.Array:
		return typeCarriesTx(u.Elem(), depth+1)
	case *types.Signature:
		params := u.Params()
		for i := 0; i < params.Len(); i++ {
			if typeCarriesTx(params.At(i).Type(), depth+1) {
				return true
			}
		}
	case *types.Named:
		if s, ok := u.Underlying().(*types.Struct); ok {
			for i := 0; i < s.NumFields(); i++ {
				if typeCarriesTx(s.Field(i).Type(), depth+1) {
					return true
				}
			}
		}
	}
	return false
}

// tripProduct multiplies the trip bounds of a loop stack (-1 when any
// loop is unbounded).
func tripProduct(loops []*loopInfo) int64 {
	k := int64(1)
	for _, L := range loops {
		if L.trip < 0 {
			return -1
		}
		k = mulCap(k, L.trip)
	}
	return k
}

// accessLines bounds the distinct lines one access touches across its
// enclosing loops: one line when the address is invariant, stride
// arithmetic when it is affine in a single bounded loop variable, one
// line per iteration of every loop it varies with otherwise.
func accessLines(view *Package, a ast.Expr, loops []*loopInfo) lineBound {
	if a == nil {
		return lineBound{n: 1}
	}
	var varying []*loopInfo
	for _, L := range loops {
		if exprVaries(view, a, L) {
			varying = append(varying, L)
		}
	}
	if len(varying) == 0 {
		return lineBound{n: 1}
	}
	for _, L := range varying {
		if L.trip < 0 {
			return lineBound{unbounded: true}
		}
	}
	if len(varying) == 1 {
		L := varying[0]
		if L.trip == 0 {
			return lineBound{}
		}
		if stride, ok := wordStride(view, a, L); ok {
			if stride == 0 {
				return lineBound{n: 1}
			}
			// Addresses are word indices: stride s over n iterations spans
			// s·(n−1) words ≤ span/LineWords + 2 distinct lines (one for
			// the span remainder, one for line misalignment).
			lines := stride*(L.trip-1)/int64(mem.LineWords) + 2
			if lines > L.trip {
				lines = L.trip
			}
			return lineBound{n: lines}
		}
		return lineBound{n: L.trip}
	}
	n := int64(1)
	for _, L := range varying {
		n = mulCap(n, L.trip)
	}
	return lineBound{n: n}
}

// exprVaries reports whether e's value can change across iterations of L:
// it references L's loop variable or anything L taints, or contains a
// non-conversion call. Reads through pointers mutated only via aliases
// are beyond this oracle — the -prof reconciliation mode exists to catch
// exactly those underestimates dynamically.
func exprVaries(view *Package, e ast.Expr, L *loopInfo) bool {
	varies := false
	ast.Inspect(e, func(n ast.Node) bool {
		if varies {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if tv, ok := view.Info.Types[x.Fun]; !ok || !tv.IsType() {
				varies = true
				return false
			}
		case *ast.Ident:
			if obj, ok := view.Info.Uses[x].(*types.Var); ok {
				if obj == L.v || L.tainted[obj] {
					varies = true
					return false
				}
			}
		}
		return true
	})
	return varies
}

// wordStride extracts the absolute word stride of an address affine in
// L's loop variable: stride(i) = 1, stride(c·x) = c·stride(x),
// stride(x±y) = stride(x)±stride(y), conversions transparent, invariant
// subexpressions stride 0. ok is false for anything else.
func wordStride(view *Package, e ast.Expr, L *loopInfo) (int64, bool) {
	s, ok := affineStride(view, e, L)
	if !ok {
		return 0, false
	}
	if s < 0 {
		s = -s
	}
	return s, true
}

func affineStride(view *Package, e ast.Expr, L *loopInfo) (int64, bool) {
	e = ast.Unparen(e)
	if !exprVaries(view, e, L) {
		return 0, true
	}
	switch x := e.(type) {
	case *ast.Ident:
		if obj, ok := view.Info.Uses[x].(*types.Var); ok && obj == L.v {
			return 1, true
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB:
			sx, okx := affineStride(view, x.X, L)
			sy, oky := affineStride(view, x.Y, L)
			if okx && oky {
				if x.Op == token.ADD {
					return sx + sy, true
				}
				return sx - sy, true
			}
		case token.MUL:
			if c, ok := constInt(view.Info, x.X); ok {
				if s, ok := affineStride(view, x.Y, L); ok {
					return mulCapSigned(s, c), true
				}
			}
			if c, ok := constInt(view.Info, x.Y); ok {
				if s, ok := affineStride(view, x.X, L); ok {
					return mulCapSigned(s, c), true
				}
			}
		}
	case *ast.CallExpr:
		if tv, ok := view.Info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return affineStride(view, x.Args[0], L)
		}
	}
	return 0, false
}

func mulCapSigned(a, b int64) int64 {
	neg := (a < 0) != (b < 0)
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	n := mulCap(a, b)
	if neg {
		return -n
	}
	return n
}

// constInt evaluates e as a compile-time integer constant.
func constInt(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok {
		return 0, false
	}
	return exactInt(tv)
}

// exactInt extracts an exact int64 from a constant type-and-value.
func exactInt(tv types.TypeAndValue) (int64, bool) {
	if tv.Value == nil {
		return 0, false
	}
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(v)
}

// analyzeLoop computes one loop's trip bound, loop variable, and tainted
// variable set.
func analyzeLoop(view *Package, n ast.Node) *loopInfo {
	li := &loopInfo{trip: -1, tainted: map[*types.Var]bool{}}
	taintDef := func(id *ast.Ident) {
		if obj, ok := view.Info.Defs[id].(*types.Var); ok {
			li.tainted[obj] = true
		}
	}
	taintRoot := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.Ident:
				if obj, ok := view.Info.Uses[x].(*types.Var); ok {
					li.tainted[obj] = true
				} else if obj, ok := view.Info.Defs[x].(*types.Var); ok {
					li.tainted[obj] = true
				}
				return
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				taintRoot(lhs)
			}
		case *ast.IncDecStmt:
			taintRoot(e.X)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				taintRoot(e.X)
			}
		case *ast.ValueSpec:
			for _, name := range e.Names {
				taintDef(name)
			}
		case *ast.Field:
			for _, name := range e.Names {
				taintDef(name)
			}
		case *ast.RangeStmt:
			if id, ok := e.Key.(*ast.Ident); ok {
				taintDef(id)
				taintRoot(id)
			}
			if id, ok := e.Value.(*ast.Ident); ok {
				taintDef(id)
				taintRoot(id)
			}
		}
		return true
	})

	switch f := n.(type) {
	case *ast.ForStmt:
		li.trip, li.v = forTrip(view, f)
	case *ast.RangeStmt:
		li.trip, li.v = rangeTrip(view, f)
	}
	return li
}

// forTrip bounds the iterations of the canonical counted-for shapes
// `for i := lo; i < hi; i += s` (and <=, and the descending mirrors).
// Anything else — including a loop that reassigns its own variable in the
// body — is unbounded.
func forTrip(view *Package, f *ast.ForStmt) (int64, *types.Var) {
	init, ok := f.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return -1, nil
	}
	id, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return -1, nil
	}
	v, _ := view.Info.Defs[id].(*types.Var)
	if v == nil {
		return -1, nil
	}
	start, ok := constInt(view.Info, init.Rhs[0])
	if !ok {
		return -1, nil
	}

	cond, ok := f.Cond.(*ast.BinaryExpr)
	if !ok {
		return -1, nil
	}
	condID, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || view.Info.Uses[condID] != v {
		return -1, nil
	}
	limit, ok := constInt(view.Info, cond.Y)
	if !ok {
		return -1, nil
	}

	step, ascending, ok := postStep(view, f.Post, v)
	if !ok || step <= 0 {
		return -1, nil
	}
	// The body must not touch the loop variable behind the pattern's back.
	if bodyAssigns(view, f.Body, v) {
		return -1, nil
	}

	var span int64
	switch cond.Op {
	case token.LSS:
		if !ascending {
			return -1, nil
		}
		span = limit - start
	case token.LEQ:
		if !ascending {
			return -1, nil
		}
		span = limit - start + 1
	case token.GTR:
		if ascending {
			return -1, nil
		}
		span = start - limit
	case token.GEQ:
		if ascending {
			return -1, nil
		}
		span = start - limit + 1
	default:
		return -1, nil
	}
	if span <= 0 {
		return 0, v
	}
	return (span + step - 1) / step, v
}

// postStep decodes a for-post statement into (step magnitude, ascending).
func postStep(view *Package, post ast.Stmt, v *types.Var) (int64, bool, bool) {
	switch p := post.(type) {
	case *ast.IncDecStmt:
		id, ok := ast.Unparen(p.X).(*ast.Ident)
		if !ok || view.Info.Uses[id] != v {
			return 0, false, false
		}
		return 1, p.Tok == token.INC, true
	case *ast.AssignStmt:
		if len(p.Lhs) != 1 || len(p.Rhs) != 1 {
			return 0, false, false
		}
		id, ok := ast.Unparen(p.Lhs[0]).(*ast.Ident)
		if !ok || view.Info.Uses[id] != v {
			return 0, false, false
		}
		c, ok := constInt(view.Info, p.Rhs[0])
		if !ok {
			return 0, false, false
		}
		switch p.Tok {
		case token.ADD_ASSIGN:
			if c < 0 {
				return -c, false, true
			}
			return c, true, true
		case token.SUB_ASSIGN:
			if c < 0 {
				return -c, true, true
			}
			return c, false, true
		}
	}
	return 0, false, false
}

// bodyAssigns reports whether body writes v (assignment, ++/--, or
// address-take).
func bodyAssigns(view *Package, body *ast.BlockStmt, v *types.Var) bool {
	found := false
	check := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && view.Info.Uses[id] == v {
			found = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(e.X)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				check(e.X)
			}
		}
		return !found
	})
	return found
}

// rangeTrip bounds a range statement: arrays and range-over-int have
// compile-time trip counts; slices, maps, strings, channels, and
// iterators do not.
func rangeTrip(view *Package, f *ast.RangeStmt) (int64, *types.Var) {
	var v *types.Var
	if id, ok := f.Key.(*ast.Ident); ok {
		if obj, ok := view.Info.Defs[id].(*types.Var); ok {
			v = obj
		} else if obj, ok := view.Info.Uses[id].(*types.Var); ok {
			v = obj
		}
	}
	tv, ok := view.Info.Types[f.X]
	if !ok {
		return -1, v
	}
	if tv.Value != nil { // range over a constant int (go1.22)
		if n, ok := exactInt(tv); ok {
			return n, v
		}
		return -1, v
	}
	t := types.Unalias(tv.Type)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if arr, ok := t.Underlying().(*types.Array); ok {
		return arr.Len(), v
	}
	return -1, v
}
