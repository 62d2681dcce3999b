package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// typecheckSrc parses and type-checks one import-free source file.
func typecheckSrc(t *testing.T, src string) (*token.FileSet, *ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Types:      make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{}
	pkg, err := conf.Check(file.Name.Name, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return fset, file, pkg, info
}

type markFact struct{ Label string }

func (*markFact) AFact() {}

type edgeFact struct{ Edges []string }

func (*edgeFact) AFact() {}

// badFact has no exported fields, so gob encoding carries nothing across;
// the framework must reject it at export time rather than store an empty
// shell.
type badFact struct{ hidden int }

func (*badFact) AFact() {}

func newTestPass(a *Analyzer, pkg *types.Package, store *factStore) *Pass {
	return &Pass{Analyzer: a, Pkg: pkg, facts: store}
}

func TestObjectFactRoundTrip(t *testing.T) {
	_, _, pkg, _ := typecheckSrc(t, `package a; type T struct{}`)
	obj := pkg.Scope().Lookup("T")
	ana := &Analyzer{Name: "test", FactTypes: []Fact{new(markFact)}}
	store := newFactStore()

	producer := newTestPass(ana, pkg, store)
	exported := &markFact{Label: "pooled"}
	producer.ExportObjectFact(obj, exported)
	// The store must hold a decoded copy, not the caller's pointer.
	exported.Label = "mutated-after-export"

	consumer := newTestPass(ana, pkg, store)
	var got markFact
	if !consumer.ImportObjectFact(obj, &got) {
		t.Fatal("ImportObjectFact: fact not found")
	}
	if got.Label != "pooled" {
		t.Fatalf("fact label = %q, want %q (export must snapshot)", got.Label, "pooled")
	}

	// Facts are keyed per analyzer: a different analyzer sees nothing.
	other := &Analyzer{Name: "other", FactTypes: []Fact{new(markFact)}}
	var miss markFact
	if newTestPass(other, pkg, store).ImportObjectFact(obj, &miss) {
		t.Fatal("fact leaked across analyzers")
	}
}

func TestPackageFactRoundTrip(t *testing.T) {
	_, _, pkgA, _ := typecheckSrc(t, `package a`)
	_, _, pkgB, _ := typecheckSrc(t, `package b`)
	ana := &Analyzer{Name: "test", FactTypes: []Fact{new(edgeFact)}}
	store := newFactStore()

	newTestPass(ana, pkgA, store).ExportPackageFact(&edgeFact{Edges: []string{"a.X->a.Y"}})

	downstream := newTestPass(ana, pkgB, store)
	var got edgeFact
	if !downstream.ImportPackageFact(pkgA, &got) {
		t.Fatal("ImportPackageFact: fact not found")
	}
	if len(got.Edges) != 1 || got.Edges[0] != "a.X->a.Y" {
		t.Fatalf("edges = %v", got.Edges)
	}
	var none edgeFact
	if downstream.ImportPackageFact(pkgB, &none) {
		t.Fatal("found a package fact that was never exported")
	}
}

func TestExportFactValidation(t *testing.T) {
	_, _, pkg, _ := typecheckSrc(t, `package a; type T struct{}`)
	obj := pkg.Scope().Lookup("T")
	store := newFactStore()

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}

	undeclared := &Analyzer{Name: "undeclared"} // empty FactTypes
	mustPanic("undeclared fact type", func() {
		newTestPass(undeclared, pkg, store).ExportObjectFact(obj, &markFact{Label: "x"})
	})

	unserializable := &Analyzer{Name: "unserializable", FactTypes: []Fact{new(badFact)}}
	mustPanic("no exported fields", func() {
		newTestPass(unserializable, pkg, store).ExportObjectFact(obj, &badFact{hidden: 1})
	})

	declared := &Analyzer{Name: "declared", FactTypes: []Fact{new(markFact)}}
	mustPanic("nil object", func() {
		newTestPass(declared, pkg, store).ExportObjectFact(nil, &markFact{})
	})
}

const dataflowSrc = `package a

func f(in int) int {
	x := in      // def x, read in
	y := x       // def y, read x
	x = 2        // write x
	x++          // write x
	z := y       // def z, read y
	p := &z      // def p, write z (address taken)
	_ = p
	return x + z // reads
}
`

func TestDefUseChains(t *testing.T) {
	_, file, _, info := typecheckSrc(t, dataflowSrc)
	fn := file.Decls[0].(*ast.FuncDecl)
	chains := DefUseChains(info, fn.Body)

	byName := map[string]*types.Var{}
	for v := range chains.refs {
		byName[v.Name()] = v
	}
	for _, name := range []string{"x", "y", "z", "p", "in"} {
		if byName[name] == nil {
			t.Fatalf("variable %s not indexed (have %v)", name, byName)
		}
	}

	kinds := func(v *types.Var) string {
		var parts []string
		for _, r := range chains.Refs(v) {
			parts = append(parts, r.Kind.String())
		}
		return strings.Join(parts, ",")
	}
	if got := kinds(byName["x"]); got != "def,read,write,write,read" {
		t.Fatalf("x chain = %s", got)
	}
	if got := kinds(byName["z"]); got != "def,write,read" {
		t.Fatalf("z chain = %s (address-taken must count as write)", got)
	}

	// Refs are sequenced in source order.
	refs := chains.Refs(byName["x"])
	for i := 1; i < len(refs); i++ {
		if refs[i-1].Ident.Pos() >= refs[i].Ident.Pos() || refs[i].Seq != i {
			t.Fatalf("x refs out of order at %d", i)
		}
	}
}

func TestRootVar(t *testing.T) {
	_, file, _, info := typecheckSrc(t, `package a
type s struct{ f int }
func g() {
	v := 1
	w := (v)
	var st s
	_ = st.f
	_ = w
}`)
	fn := file.Decls[1].(*ast.FuncDecl)
	var parenExpr, selExpr ast.Expr
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.ParenExpr:
			parenExpr = e
		case *ast.SelectorExpr:
			selExpr = e
		}
		return true
	})
	if v := RootVar(info, parenExpr); v == nil || v.Name() != "v" {
		t.Fatalf("RootVar((v)) = %v, want v", v)
	}
	if v := RootVar(info, selExpr); v != nil {
		t.Fatalf("RootVar(st.f) = %v, want nil", v)
	}
}
