package analysis

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"testing"
)

// TestCoreTreeClean runs the full suite over the whole module, as CI's
// parthtm-vet step does: a window's walk judges only callees whose package
// is in the load, so a narrower load would pass code the driver flags.
// The module must stay diagnostic-free: a finding here is either a real
// discipline violation introduced by a change, or an analyzer regression —
// both block. (`...` skips testdata, so the fixtures stay out.)
func TestCoreTreeClean(t *testing.T) {
	requireGoTool(t)
	diags, err := Check("", All(), "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// htmregion keeps no list for the tooling packages: a window calling into
// trace, prof, or obs is judged by the walk on the callee's body. Each
// tooling call in the tooling fixture's windows is walked on its own — a
// fresh visited set, so a helper two callees share counts for both —
// against the real packages. The queries must be flagged in the package
// that makes the clock read, lock, or allocation; the record hooks must
// pass.
func TestHTMRegionWalksTooling(t *testing.T) {
	const fixture = "repro/internal/analysis/testdata/src/tooling"
	prog := loadProgram(t, "./testdata/src/tooling",
		"repro/internal/trace", "repro/internal/prof", "repro/internal/obs", "repro/internal/perthread")
	flaggedIn := map[string]string{
		"trace.Now":                  "repro/internal/trace",
		"trace.Sink.Mark":            "repro/internal/trace",
		"prof.Profile.TopK":          "repro/internal/prof",
		"prof.Profile.Shard":         "repro/internal/perthread",
		"obs.Registry.Register":      "repro/internal/obs",
		"obs.Registry.Sample":        "repro/internal/obs",
		"trace.Buffer.Record":        "",
		"trace.Buffer.RecordMark":    "",
		"prof.Shard.RecordConflict":  "",
		"prof.Shard.RecordCapacity":  "",
		"prof.Shard.RecordFootprint": "",
	}
	pkg := prog.Package(fixture)
	seen := map[string]bool{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(pkg.Info, call)
				if fn == nil {
					return true
				}
				name := filepath.Base(funcKey(fn))
				want, listed := flaggedIn[name]
				if !listed {
					return true
				}
				seen[name] = true
				diags := walkOne(prog, pkg, call)
				if want == "" {
					for _, d := range diags {
						t.Errorf("%s: flagged inside its own body: %s", name, d)
					}
					return true
				}
				found := false
				for _, d := range diags {
					found = found || filepath.Dir(d.Pos.Filename) == prog.Package(want).Dir
				}
				if !found {
					t.Errorf("%s: no htmregion finding in %s (got %v)", name, want, diags)
				}
				return true
			})
			return false
		})
	}
	for name := range flaggedIn {
		if !seen[name] {
			t.Errorf("the fixture calls no %s from a window", name)
		}
	}
}

// walkOne runs htmregion's window walk from a single call.
func walkOne(prog *Program, pkg *Package, call *ast.CallExpr) []Diagnostic {
	var diags []Diagnostic
	pass := &Pass{Analyzer: HTMRegion, Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types,
		TypesInfo: pkg.Info, Prog: prog, This: pkg, diags: &diags}
	w := &regionWalker{pass: pass, visited: map[*FuncNode]bool{}}
	w.scan(pkg, call)
	return diags
}

func diagAt(file string, line, col int, analyzer, msg string) Diagnostic {
	return Diagnostic{
		Pos:      token.Position{Filename: file, Line: line, Column: col},
		Analyzer: analyzer,
		Message:  msg,
	}
}

func TestSortDiagnosticsDeterministic(t *testing.T) {
	in := []Diagnostic{
		diagAt("b.go", 1, 1, "txpure", "z"),
		diagAt("a.go", 9, 2, "txpure", "m"),
		diagAt("a.go", 9, 2, "htmregion", "m"),
		diagAt("a.go", 9, 2, "txpure", "m"), // exact repeat: dropped
		diagAt("a.go", 2, 5, "txpure", "m"),
	}
	got := sortDiagnostics(in)
	want := []Diagnostic{
		diagAt("a.go", 2, 5, "txpure", "m"),
		diagAt("a.go", 9, 2, "htmregion", "m"),
		diagAt("a.go", 9, 2, "txpure", "m"),
		diagAt("b.go", 1, 1, "txpure", "z"),
	}
	if len(got) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
}
