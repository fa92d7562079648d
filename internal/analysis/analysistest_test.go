package analysis

import (
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The tests below mirror x/tools' analysistest: each analyzer runs over a
// fixture package under testdata/src and its diagnostics are diffed
// against `// want "regexp"` comments in the sources. Fixtures are loaded
// with the driver's own Load, as packages of this module
// (repro/internal/analysis/testdata/src/<name>) importing the real
// packages they police, so a fixture that drifts from the real API fails
// to load.

func TestTxPure(t *testing.T) { runAnalyzerTest(t, TxPure, "txpure") }

// htmregion's walk crosses package boundaries: the sub package carries
// want cases reported by the walk rooted in the parent package.
func TestHTMRegion(t *testing.T) { runAnalyzerTest(t, HTMRegion, "htmregion/...") }

// Escape-hatch interaction: two analyzers over one fixture, with tags
// stacked on one declaration, wrong-tag and placement negatives, and
// method-doc scoping across receiver kinds.
func TestEscapeHatchInteractions(t *testing.T) {
	runSuiteTest(t, []*Analyzer{TxPure, HTMRegion}, "hatch")
}

func runAnalyzerTest(t *testing.T, a *Analyzer, fixture string) {
	runSuiteTest(t, []*Analyzer{a}, fixture)
}

// loadPackages is Load for a test: it skips without a go tool and fails
// the test on a load error.
func loadPackages(t *testing.T, patterns ...string) []*Package {
	t.Helper()
	requireGoTool(t)
	pkgs, err := Load("", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

// loadProgram builds one Program over the packages patterns match, as the
// driver does.
func loadProgram(t *testing.T, patterns ...string) *Program {
	return NewProgram(loadPackages(t, patterns...)...)
}

// runSuiteTest loads testdata/src/<fixture> into one Program (so
// cross-package walks reach every loaded declaration, as under
// cmd/parthtm-vet), applies the analyzers to each loaded package, and
// diffs the combined diagnostics against the fixtures' `// want` comments.
func runSuiteTest(t *testing.T, analyzers []*Analyzer, fixture string) {
	pkgs := loadPackages(t, "./testdata/src/"+fixture)
	prog := NewProgram(pkgs...)
	var diags []Diagnostic
	wants := map[lineKey][]*want{}
	for _, pkg := range pkgs {
		diags = append(diags, RunAnalyzersIn(prog, analyzers, pkg)...)
		collectWants(t, pkg, wants)
	}
	diags = sortDiagnostics(diags)

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

// collectWants adds pkg's want expectations to wants. A want comment
// holds one or more Go-quoted regexps: // want `first` "second".
func collectWants(t *testing.T, pkg *Package, wants map[lineKey][]*want) {
	t.Helper()
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
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
}
