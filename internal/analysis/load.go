// Package loading. The module carries no third-party dependencies, so
// instead of golang.org/x/tools/go/packages the loader shells out to
// `go list -export`, parses the target packages with go/parser, and
// type-checks them against the compiler's export data via go/importer — the
// same artifacts the build itself produces, so the analyzers always see
// exactly the types the compiler saw.
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
	"sort"
)

// A Package is one loaded, type-checked module package ready for analysis.
type Package struct {
	PkgPath string
	Dir     string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns (in dir, "" for the current directory), compiles
// export data for every dependency, and returns the matched packages
// parsed and type-checked. Test files are not loaded: the TM discipline
// binds production sources.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Error", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}

	exports := map[string]string{}
	var targets []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		var files []string
		for _, f := range t.GoFiles {
			files = append(files, filepath.Join(t.Dir, f))
		}
		pkg, err := checkPackage(t.ImportPath, t.Dir, files, func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkPackage parses files and type-checks them as package pkgPath,
// resolving imports through lookup (which must return gc export data).
func checkPackage(pkgPath, dir string, files []string, lookup func(string) (io.ReadCloser, error)) (*Package, error) {
	fset := token.NewFileSet()
	var asts []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(pkgPath, fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return &Package{
		PkgPath: pkgPath,
		Dir:     dir,
		Fset:    fset,
		Files:   asts,
		Types:   tpkg,
		Info:    info,
	}, nil
}

// NewInfo allocates a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Check runs the given analyzers over every package matched by patterns
// and returns the combined diagnostics, sorted and deduplicated. All
// matched packages share one Program, so interprocedural walks cross
// package boundaries. It is the library entry point the driver and the
// regression tests share.
func Check(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	prog := NewProgram(pkgs...)
	var diags []Diagnostic
	for _, p := range pkgs {
		diags = append(diags, RunAnalyzersIn(prog, analyzers, p)...)
	}
	return sortDiagnostics(diags), nil
}
