package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DomainOrder verifies the domain commit protocol's iteration discipline.
//
// With sharded memory domains, a cross-domain commit claims a timestamp
// and publishes a ring entry in every written domain. internal/domain's
// contract (and the deadlock argument in DESIGN.md) requires the walks to
// follow the canonical lock order: claim/publish visits written domains in
// ascending index order (`d := bits.TrailingZeros64(m)` over the written
// mask), and lock release descends (`d := 63 - bits.LeadingZeros64(m)`),
// the mirror of acquisition. Two commits that claimed domains in different
// orders could each hold one domain's serialization point while spinning
// on the other's — the classic lock-order deadlock, except here it wedges
// every validator of both domains.
//
// The analyzer checks three things:
//
//   - Confinement: Domains.ClaimTimestamp, Domains.Publish, and
//     Domains.ReleaseWlocks are called only from internal/core's commit
//     sequence (or internal/domain itself). Any other caller is bypassing
//     the protocol.
//   - Direction: at every helper call, confined or not, an index that
//     comes from a mask walk must walk in the right direction — ascending
//     for claim/publish, descending for release. An index that is neither
//     a compile-time constant nor a recognized mask walk is flagged as
//     unverifiable.
//   - Progress and pairing: a mask walk must clear the mask each
//     iteration (`m &= m - 1` or `m &^= 1 << d`), and a loop that claims
//     a timestamp must publish in the same loop — a claimed-but-never-
//     published entry's seqlock never closes, wedging every validator of
//     that domain.
//
// `// parthtm:ordered` suppresses a finding where the order is proven by
// other means (e.g. a single-domain topology where order is vacuous).
var DomainOrder = &Analyzer{
	Name: "domainorder",
	Tag:  "ordered",
	Doc: "check that domain claim/publish walks ascend, release walks descend, " +
		"and the commit helpers stay confined to internal/core's commit sequence",
	Run: runDomainOrder,
}

// walkDir is the direction of a recognized mask walk.
type walkDir int

const (
	dirUnknown walkDir = iota
	dirAscending
	dirDescending
)

// domainHelperKind classifies a call as one of the three ordered commit
// helpers, or "".
func domainHelperKind(fn *types.Func) string {
	switch {
	case isMethodOf(fn, domainPath, "Domains", "ClaimTimestamp"):
		return "ClaimTimestamp"
	case isMethodOf(fn, domainPath, "Domains", "Publish"):
		return "Publish"
	case isMethodOf(fn, domainPath, "Domains", "ReleaseWlocks"):
		return "ReleaseWlocks"
	}
	return ""
}

func runDomainOrder(pass *Pass) {
	confined := pass.This.PkgPath == corePath || pass.This.PkgPath == domainPath
	for _, f := range pass.Files {
		// Claim/publish pairing is judged per enclosing loop.
		claims := map[*ast.ForStmt][]*ast.CallExpr{}
		publishes := map[*ast.ForStmt]bool{}

		inspectStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			kind := domainHelperKind(calleeFunc(pass.TypesInfo, call))
			if kind == "" {
				return true
			}
			if !confined {
				pass.Reportf(call.Pos(),
					"domain.Domains.%s called outside internal/core's commit sequence: the ordered claim/publish/release walks are confined to the core commit protocol", kind)
			}
			loop := innermostFor(stack)
			if kind == "ClaimTimestamp" && loop != nil {
				claims[loop] = append(claims[loop], call)
			}
			if kind == "Publish" && loop != nil {
				publishes[loop] = true
			}
			checkWalkCall(pass, call, kind, stack)
			return true
		})

		for loop, cs := range claims {
			if publishes[loop] {
				continue
			}
			for _, c := range cs {
				pass.Reportf(c.Pos(),
					"claimed timestamp is never published in the same walk: an unpublished claim leaves the domain's ring entry unpublished, wedging every validator of that domain")
			}
		}
	}
}

// checkWalkCall verifies one helper call's index derivation and
// walk direction.
func checkWalkCall(pass *Pass, call *ast.CallExpr, kind string, stack []ast.Node) {
	if len(call.Args) == 0 {
		return
	}
	arg := ast.Unparen(call.Args[0])
	if _, ok := constInt(pass.TypesInfo, arg); ok {
		return // a constant domain index needs no ordering
	}
	dir, loop, mask := classifyIndex(pass.TypesInfo, arg, stack)
	if dir == dirUnknown {
		pass.Reportf(call.Pos(),
			"domain.Domains.%s index is neither a constant nor derived from a canonical mask walk (ascending d := bits.TrailingZeros64(m), descending d := 63 - bits.LeadingZeros64(m)): iteration order is unverifiable", kind)
		return
	}
	want := dirAscending
	if kind == "ReleaseWlocks" {
		want = dirDescending
	}
	if dir != want {
		if want == dirAscending {
			pass.Reportf(call.Pos(),
				"domain.Domains.%s called in a descending mask walk: claim/publish must visit written domains in ascending index order (d := bits.TrailingZeros64(m)) — two commits walking in different orders can deadlock on each other's serialization points", kind)
		} else {
			pass.Reportf(call.Pos(),
				"domain.Domains.%s called in an ascending mask walk: releases must descend (d := 63 - bits.LeadingZeros64(m)), the mirror of the ascending acquisition order", kind)
		}
		return
	}
	if mask != nil && loop != nil && !maskCleared(pass.TypesInfo, loop, mask) {
		pass.Reportf(call.Pos(),
			"mask walk around domain.Domains.%s never clears the mask (expected `m &= m - 1` or `m &^= 1 << d`): the walk cannot make progress", kind)
	}
}

// classifyIndex resolves a domain-index expression to the mask walk that
// derives it: the index must be a local variable defined inside an
// enclosing for loop as bits.TrailingZeros64(m) (ascending) or
// 63 - bits.LeadingZeros64(m) (descending). Returns the walk's direction,
// loop, and mask variable.
func classifyIndex(info *types.Info, arg ast.Expr, stack []ast.Node) (walkDir, *ast.ForStmt, *types.Var) {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return dirUnknown, nil, nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		return dirUnknown, nil, nil
	}
	for i := len(stack) - 1; i >= 0; i-- {
		loop, ok := stack[i].(*ast.ForStmt)
		if !ok {
			continue
		}
		dir, mask := findIndexDef(info, loop, v)
		if dir != dirUnknown {
			return dir, loop, mask
		}
	}
	return dirUnknown, nil, nil
}

// findIndexDef looks for `v := <walk expr>` in loop's body and classifies
// the walk expression.
func findIndexDef(info *types.Info, loop *ast.ForStmt, v *types.Var) (walkDir, *types.Var) {
	dir := dirUnknown
	var mask *types.Var
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != types.Object(v) {
			return true
		}
		d, m := classifyWalkExpr(info, as.Rhs[0])
		if d != dirUnknown {
			dir, mask = d, m
			return false
		}
		// v is assigned something that is not a walk expression: the
		// derivation is not canonical.
		dir, mask = dirUnknown, nil
		return false
	})
	return dir, mask
}

// classifyWalkExpr recognizes the two canonical index derivations:
// bits.TrailingZeros64(m) (ascending) and 63 - bits.LeadingZeros64(m)
// (descending).
func classifyWalkExpr(info *types.Info, e ast.Expr) (walkDir, *types.Var) {
	e = ast.Unparen(e)
	if m := bitsCallMask(info, e, "TrailingZeros64"); m != nil {
		return dirAscending, m
	}
	if bin, ok := e.(*ast.BinaryExpr); ok && bin.Op == token.SUB {
		if c, ok := constInt(info, bin.X); ok && c == 63 {
			if m := bitsCallMask(info, bin.Y, "LeadingZeros64"); m != nil {
				return dirDescending, m
			}
		}
	}
	return dirUnknown, nil
}

// bitsCallMask matches math/bits.<name>(m) for a local mask variable m.
func bitsCallMask(info *types.Info, e ast.Expr, name string) *types.Var {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name || funcPkgPath(fn) != "math/bits" {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	m, _ := info.Uses[id].(*types.Var)
	return m
}

// maskCleared reports whether the loop updates the mask variable each
// iteration (body or post statement) — the progress condition of a mask
// walk. Any assignment or ++/-- counts as an update; the canonical forms
// are `m &= m - 1` and `m &^= 1 << uint(d)`.
func maskCleared(info *types.Info, loop *ast.ForStmt, mask *types.Var) bool {
	found := false
	check := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && info.Uses[id] == types.Object(mask) {
			found = true
		}
	}
	scan := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(x ast.Node) bool {
			switch s := x.(type) {
			case *ast.AssignStmt:
				for _, lhs := range s.Lhs {
					check(lhs)
				}
			case *ast.IncDecStmt:
				check(s.X)
			}
			return !found
		})
	}
	scan(loop.Body)
	scan(loop.Post)
	return found
}

// innermostFor returns the innermost enclosing for statement, or nil.
func innermostFor(stack []ast.Node) *ast.ForStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		if f, ok := stack[i].(*ast.ForStmt); ok {
			return f
		}
	}
	return nil
}
