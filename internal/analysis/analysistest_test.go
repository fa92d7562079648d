package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The tests below mirror x/tools' analysistest: each analyzer runs over a
// package under testdata/src and its diagnostics are diffed against
// `// want "regexp"` comments in the sources. The testdata tree carries
// stubs of repro/internal/{tm,mem,htm,exec} at their real import paths, so
// the analyzers' path-based type matching works without loading the real
// packages.

func TestSingleWriter(t *testing.T) { runAnalyzerTest(t, SingleWriter, "singlewriter") }
func TestAtomicMix(t *testing.T)    { runAnalyzerTest(t, AtomicMix, "atomicmix") }
func TestTxPure(t *testing.T)       { runAnalyzerTest(t, TxPure, "txpure") }
func TestTxFootprint(t *testing.T)  { runAnalyzerTest(t, TxFootprint, "txfootprint") }

// htmregion's walk crosses package boundaries: the sub package carries
// want cases reported by the walk rooted in the parent package.
func TestHTMRegion(t *testing.T) {
	runSuiteTest(t, []*Analyzer{HTMRegion}, []string{"htmregion"}, []string{"htmregion/sub"})
}

// The governor stub package doubles as the fixture for htmregion's
// allocation-free-hook enforcement: its clean hooks must produce no
// diagnostics, its badhooks.go carries the want cases.
func TestHTMRegionGovernorHooks(t *testing.T) {
	runAnalyzerTest(t, HTMRegion, "repro/internal/governor")
}

// The domainorder walk-direction and pairing rules only apply inside the
// commit sequence, so their fixture is a stub at internal/core's import
// path; the confinement rule is exercised from an unrelated package.
func TestDomainOrderWalks(t *testing.T) {
	runAnalyzerTest(t, DomainOrder, "repro/internal/core")
}

func TestDomainOrderConfinement(t *testing.T) {
	runAnalyzerTest(t, DomainOrder, "domainorder")
}

// Escape-hatch interaction: two analyzers over one fixture, with tags
// stacked on one declaration, wrong-tag and placement negatives, and
// method-doc scoping across receiver kinds.
func TestEscapeHatchInteractions(t *testing.T) {
	runSuiteTest(t, []*Analyzer{TxPure, HTMRegion}, []string{"hatch"}, nil)
}

func runAnalyzerTest(t *testing.T, a *Analyzer, pkgPath string) {
	runSuiteTest(t, []*Analyzer{a}, []string{pkgPath}, nil)
}

// runSuiteTest loads runPaths from testdata/src, builds one Program over
// every testdata package the load touched (so cross-package walks reach
// real declarations, as under cmd/parthtm-vet), applies the
// analyzers to each package in runPaths, and diffs the combined
// diagnostics against `// want` comments in runPaths ∪ wantPaths.
func runSuiteTest(t *testing.T, analyzers []*Analyzer, runPaths, wantPaths []string) {
	requireGoTool(t)
	fset := token.NewFileSet()
	imp := newTestdataImporter(fset)

	var targets, wantPkgs []*Package
	for _, path := range runPaths {
		pkg, err := imp.loadSource(path)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, pkg)
		wantPkgs = append(wantPkgs, pkg)
	}
	for _, path := range wantPaths {
		pkg, err := imp.loadSource(path)
		if err != nil {
			t.Fatal(err)
		}
		wantPkgs = append(wantPkgs, pkg)
	}

	var all []*Package
	for _, pkg := range imp.pkgs {
		all = append(all, pkg)
	}
	prog := NewProgram(all...)

	var diags []Diagnostic
	for _, target := range targets {
		diags = append(diags, RunAnalyzersIn(prog, analyzers, target)...)
	}
	diags = sortDiagnostics(diags)

	var files []*ast.File
	for _, pkg := range wantPkgs {
		files = append(files, pkg.Files...)
	}
	wants := collectWants(t, fset, files)

	for _, d := range diags {
		key := lineKey{d.Pos.Filename, d.Pos.Line}
		matched := false
		for _, w := range wants[key] {
			if w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", d.Pos, d.Message)
		}
	}
	var keys []lineKey
	for key := range wants {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, key := range keys {
		for _, w := range wants[key] {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", key.file, key.line, w.re)
			}
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

func requireGoTool(t *testing.T) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
}

type lineKey struct {
	file string
	line int
}

// want is one expectation from a `// want "regexp"` comment: a diagnostic
// on the comment's line whose message matches re.
type want struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants extracts want expectations. A want comment holds one or
// more Go-quoted regexps: // want `first` "second".
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) map[lineKey][]*want {
	t.Helper()
	wants := map[lineKey][]*want{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Fatalf("%s:%d: malformed want comment %q: %v", pos.Filename, pos.Line, c.Text, err)
					}
					pattern, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: unquoting %q: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pattern, err)
					}
					key := lineKey{pos.Filename, pos.Line}
					wants[key] = append(wants[key], &want{re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	return wants
}

// testdataImporter type-checks packages rooted at testdata/src. Import
// paths with a directory there resolve from the stub sources (so the repro
// stubs shadow the real packages); everything else — the standard library
// — resolves through the toolchain's export data via `go list -export`.
type testdataImporter struct {
	fset    *token.FileSet
	root    string
	pkgs    map[string]*Package
	std     types.Importer
	exports map[string]string
}

func newTestdataImporter(fset *token.FileSet) *testdataImporter {
	imp := &testdataImporter{
		fset:    fset,
		root:    filepath.Join("testdata", "src"),
		pkgs:    map[string]*Package{},
		exports: map[string]string{},
	}
	imp.std = importer.ForCompiler(fset, "gc", imp.stdExport)
	return imp
}

// stdExport returns export data for a standard-library package, shelling
// out to `go list -export -deps` once per new root and caching the rest.
func (imp *testdataImporter) stdExport(path string) (io.ReadCloser, error) {
	if f, ok := imp.exports[path]; ok {
		return os.Open(f)
	}
	cmd := exec.Command("go", "list", "-export", "-json=ImportPath,Export", "-deps", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v\n%s", path, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			imp.exports[p.ImportPath] = p.Export
		}
	}
	f, ok := imp.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

func (imp *testdataImporter) Import(path string) (*types.Package, error) {
	pkg, err := imp.loadSource(path)
	if err == errNotTestdata {
		return imp.std.Import(path)
	}
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

var errNotTestdata = fmt.Errorf("not a testdata package")

// loadSource parses and type-checks testdata/src/<path>, memoized.
func (imp *testdataImporter) loadSource(path string) (*Package, error) {
	if p, ok := imp.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(imp.root, filepath.FromSlash(path))
	st, err := os.Stat(dir)
	if err != nil || !st.IsDir() {
		return nil, errNotTestdata
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var asts []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(imp.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	if len(asts) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, imp.fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking testdata package %s: %v", path, err)
	}
	pkg := &Package{PkgPath: path, Dir: dir, Fset: imp.fset, Files: asts, Types: tpkg, Info: info}
	imp.pkgs[path] = pkg
	return pkg, nil
}
