// Package analysis is parthtm-vet: the static checks for the two
// transactional-memory rules whose violations no test or race run sees.
//
// Bodies passed to tm.System.Atomic must be pure functions of their inputs
// and Reads (txpure), and code running inside a simulated
// hardware-transaction window must not do things real TSX forbids —
// allocate, take locks, read the clock, touch channels or the scheduler —
// in its own body or in any module function it reaches (htmregion). An
// analyzer stays in the suite only while a seeded mutation of the real
// tree exists that it reports and that the tests and the race detector
// miss; DESIGN.md §9 records each one.
//
// The framework deliberately mirrors a small subset of
// golang.org/x/tools/go/analysis (Analyzer, Pass, Diagnostic) so the
// analyzers read like standard vet checks — but it is built entirely on
// the standard library, because this module carries no third-party
// dependencies. Packages are loaded by load.go (via `go list -export`,
// production files only) and analysed together as one whole-module
// Program. The tests load their fixtures the same way: each fixture under
// testdata/src is a package of this module that imports the real
// packages it exercises.
//
// # Annotations
//
// Every analyzer has an escape hatch: a `// parthtm:<tag>` comment
// suppresses its diagnostics. The tag may be followed by free text
// giving the justification (write one — the annotation is a claim that a
// human proved the invariant by other means):
//
//	txpure        // parthtm:impure   — body's captured state is retry-safe
//	htmregion     // parthtm:htmsafe  — operation is safe inside the window
//
// An annotation applies to the source line it trails (or the line
// directly above the flagged one), or to a whole function when placed in
// the function's doc comment.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph description shown by -help.
	Doc string
	// Tag is the parthtm annotation tag that suppresses this analyzer's
	// diagnostics (the package doc lists both).
	Tag string
	// Run performs the check on one package.
	Run func(*Pass)
}

// All returns the full parthtm-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{TxPure, HTMRegion}
}

// A Pass provides one analyzer with one type-checked package and a sink
// for its diagnostics. Reportf filters suppressed positions, so analyzers
// do not handle annotations themselves.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Prog is the whole-module view the pass runs inside — every matched
	// package, so cross-package walks reach real declarations; This is
	// the pass's own package within it.
	Prog *Program
	This *Package

	diags *[]Diagnostic
}

// A Diagnostic is one finding, bound to a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos unless a parthtm annotation for this
// analyzer's tag covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfIn(p.This, pos, format, args...)
}

// ReportfIn records a finding at pos inside an arbitrary program package —
// the sink for cross-package walks, which must resolve positions with the
// owning package's file set and honour the owning file's annotations.
func (p *Pass) ReportfIn(pkg *Package, pos token.Pos, format string, args ...any) {
	if p.suppressedIn(pkg, pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAnalyzersIn applies every analyzer to one target package inside a
// whole-module Program, returning the findings sorted and deduplicated.
func RunAnalyzersIn(prog *Program, analyzers []*Analyzer, target *Package) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      target.Fset,
			Files:     target.Files,
			Pkg:       target.Types,
			TypesInfo: target.Info,
			Prog:      prog,
			This:      target,
			diags:     &diags,
		}
		a.Run(pass)
	}
	return sortDiagnostics(diags)
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer, and
// message, and drops exact repeats — a site can be reached twice within
// one pass (a function shared by two hardware-transaction windows) or
// across passes (a helper package walked from two analyzed roots). The
// canonical order makes the output byte-stable across runs.
func sortDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	deduped := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		deduped = append(deduped, d)
	}
	return deduped
}

// annotations indexes every parthtm comment in a package: line-scoped
// tags by (file, line) and function-scoped tags by body span.
type annotations struct {
	lines map[string]map[int]map[string]bool // filename -> line -> tag set
	funcs []funcNote
}

type funcNote struct {
	lo, hi token.Pos
	tags   map[string]bool
}

// annotationPrefix introduces a parthtm annotation inside a comment.
const annotationPrefix = "parthtm:"

func parseTags(text string) map[string]bool {
	var tags map[string]bool
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "//"))
		if !strings.HasPrefix(line, annotationPrefix) {
			continue
		}
		rest := strings.TrimPrefix(line, annotationPrefix)
		// The tag is the leading word; anything after it is justification.
		tag := rest
		if i := strings.IndexAny(rest, " \t—-"); i >= 0 {
			tag = rest[:i]
		}
		if tag == "" {
			continue
		}
		if tags == nil {
			tags = map[string]bool{}
		}
		tags[tag] = true
	}
	return tags
}

func collectAnnotations(fset *token.FileSet, files []*ast.File) annotations {
	notes := annotations{lines: map[string]map[int]map[string]bool{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				tags := parseTags(c.Text)
				if tags == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := notes.lines[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					notes.lines[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = map[string]bool{}
				}
				for t := range tags {
					byLine[pos.Line][t] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Doc == nil || fd.Body == nil {
				return true
			}
			if tags := parseTags(fd.Doc.Text()); tags != nil {
				notes.funcs = append(notes.funcs, funcNote{
					lo: fd.Body.Pos(), hi: fd.Body.End(), tags: tags,
				})
			}
			return true
		})
	}
	return notes
}

// suppressedIn reports whether a parthtm annotation for the pass's tag
// covers pos in pkg: on the same line, on the line directly above, or in
// the enclosing function's doc comment.
func (p *Pass) suppressedIn(pkg *Package, pos token.Pos) bool {
	return p.Prog.notesFor(pkg).covers(pkg.Fset, pos, p.Analyzer.Tag)
}

// covers reports whether a parthtm annotation for tag covers pos: on the
// same line, on the line directly above, or in the enclosing function's
// doc comment.
func (n annotations) covers(fset *token.FileSet, pos token.Pos, tag string) bool {
	at := fset.Position(pos)
	if byLine := n.lines[at.Filename]; byLine != nil {
		if byLine[at.Line][tag] || byLine[at.Line-1][tag] {
			return true
		}
	}
	for _, fn := range n.funcs {
		if fn.lo <= pos && pos < fn.hi && fn.tags[tag] {
			return true
		}
	}
	return false
}

// ---- shared type helpers used by the analyzers ----

// Import paths of the packages whose invariants the suite encodes.
const (
	tmPath     = "repro/internal/tm"
	memPath    = "repro/internal/mem"
	htmPath    = "repro/internal/htm"
	execPath   = "repro/internal/exec"
	domainPath = "repro/internal/domain"
)

// calleeFunc resolves the *types.Func a call invokes (methods and
// package-level functions), or nil for builtins, conversions, and
// function-valued expressions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// namedType unwraps pointers and aliases down to a named type, if any.
func namedType(t types.Type) *types.Named {
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}

// isNamed reports whether t (or *t) is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// isMethodOf reports whether fn is a method named methodName declared on
// the named type pkgPath.recvName (value or pointer receiver).
func isMethodOf(fn *types.Func, pkgPath, recvName, methodName string) bool {
	if fn == nil || fn.Name() != methodName {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamed(sig.Recv().Type(), pkgPath, recvName)
}

// funcPkgPath returns the import path of the package declaring fn, or "".
func funcPkgPath(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// inspectStack walks every node under root in source order, maintaining
// the ancestor stack (outermost first, excluding n itself). Return false
// from visit to skip n's children.
func inspectStack(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := visit(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
