// Package analysistest runs an analyzer over golden fixture packages and
// checks its diagnostics against `// want "regexp"` comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// alone.
//
// Fixtures live GOPATH-style under testdata/src/<pkg>; a fixture package
// may import a sibling fixture package by its bare directory name (the
// runner resolves "sim" to testdata/src/sim), which lets fixtures model
// the simulator's own package names — the analyzers identify domain types
// such as sim.Engine or units.Duration by defining package name.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"tca/internal/analysis/framework"
)

// Run applies the analyzer to each named fixture package under
// testdata/src and reports any mismatch between the diagnostics produced
// and the `// want` expectations as test failures.
//
// All fixtures reachable from the named packages run under one shared
// framework.Suite, dependencies first, so facts an analyzer exports while
// visiting an imported fixture are visible when the importer is analyzed —
// the same load order the tcavet driver uses on the real module. A module
// analyzer then runs once over all of them. Want expectations are checked
// in every loaded fixture, dependencies included. A fixture's _test.go
// files are type-checked with the package; analyzers tell them apart by
// file name.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgs ...string) {
	t.Helper()
	src := filepath.Join(testdata, "src")
	fset := token.NewFileSet()
	loader := &fixtureLoader{
		src:    src,
		fset:   fset,
		loaded: make(map[string]*loadedFixture),
		std:    importer.ForCompiler(fset, "source", nil),
	}
	for _, pkg := range pkgs {
		if _, err := loader.load(pkg); err != nil {
			t.Fatalf("loading fixture %s: %v", pkg, err)
		}
	}
	suite := framework.NewSuite([]*framework.Analyzer{a})
	var diags []framework.Diagnostic
	var all []*framework.Package
	wants := make(map[token.Position][]*want)
	for _, fx := range loader.order {
		d, err := suite.Run(fx.pkg)
		if err != nil {
			t.Fatalf("%s: %v", fx.pkg.Path, err)
		}
		diags = append(diags, d...)
		all = append(all, fx.pkg)
		for k, w := range fx.wants {
			wants[k] = append(wants[k], w...)
		}
	}
	d, err := suite.RunModule(all)
	if err != nil {
		t.Fatal(err)
	}
	check(t, fset, append(diags, d...), wants)
}

type loadedFixture struct {
	pkg   *framework.Package
	wants map[token.Position][]*want // keyed by file:line (column zeroed)
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

// check diffs diagnostics against expectations.
func check(t *testing.T, fset *token.FileSet, diags []framework.Diagnostic, wants map[token.Position][]*want) {
	t.Helper()
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		key := token.Position{Filename: pos.Filename, Line: pos.Line}
		matched := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	var keys []token.Position
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Filename != keys[j].Filename {
			return keys[i].Filename < keys[j].Filename
		}
		return keys[i].Line < keys[j].Line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matching %q", k.Filename, k.Line, w.re)
			}
		}
	}
}

type fixtureLoader struct {
	src    string
	fset   *token.FileSet
	loaded map[string]*loadedFixture
	// order lists fixtures in completion order of the recursive load —
	// dependencies before their importers, the order a fact-carrying
	// suite must analyze them in.
	order []*loadedFixture
	std   types.Importer
}

// load parses and type-checks one fixture package (and, recursively, the
// sibling fixtures it imports) and collects its want expectations.
func (l *fixtureLoader) load(path string) (*loadedFixture, error) {
	if fx, ok := l.loaded[path]; ok {
		return fx, nil
	}
	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fx := &loadedFixture{wants: make(map[token.Position][]*want)}
	var files []*ast.File
	var testImports []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		if strings.HasSuffix(e.Name(), "_test.go") {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				testImports = append(testImports, path)
			}
		}
		if err := collectWants(l.fset, f, fx.wants); err != nil {
			return nil, err
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if sub, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(p))); err == nil && sub.IsDir() {
			dep, err := l.load(p)
			if err != nil {
				return nil, err
			}
			return dep.pkg.Types, nil
		}
		return l.std.Import(p)
	})}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %w", path, err)
	}
	fx.pkg = &framework.Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info, Matched: true, TestImports: testImports}
	l.loaded[path] = fx
	l.order = append(l.order, fx)
	return fx, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

var wantRe = regexp.MustCompile("// want (\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

// collectWants records every `// want "re"` (or backquoted) expectation,
// keyed by the line its comment sits on.
func collectWants(fset *token.FileSet, f *ast.File, wants map[token.Position][]*want) error {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
				lit := m[1]
				var pat string
				if strings.HasPrefix(lit, "`") {
					pat = strings.Trim(lit, "`")
				} else {
					var err error
					pat, err = strconv.Unquote(lit)
					if err != nil {
						return fmt.Errorf("%s: bad want literal %s: %w", fset.Position(c.Pos()), lit, err)
					}
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return fmt.Errorf("%s: bad want pattern %q: %w", fset.Position(c.Pos()), pat, err)
				}
				pos := fset.Position(c.Pos())
				key := token.Position{Filename: pos.Filename, Line: pos.Line}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
	}
	return nil
}
