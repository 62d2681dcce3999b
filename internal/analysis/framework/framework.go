// Package framework is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface that the tcavet suite builds on:
// Analyzer, Pass, Diagnostic, plus the package loader the driver and the
// fixture runner share. The build environment has no module proxy access,
// so instead of depending on x/tools the suite carries these three concepts
// itself on top of the standard library's go/ast, go/types and go/build.
//
// The API is deliberately shaped like x/tools so the analyzers port over
// verbatim if the dependency ever becomes available.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one static check. Run inspects a fully type-checked
// package through its Pass and reports diagnostics; it must be stateless
// across packages.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the one-paragraph description printed by `tcavet -list`. The
	// first line is the summary.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass) error
	// RunModule, set instead of Run, makes a module analyzer: it runs
	// once, after every package is loaded, with Pass.Module holding all of
	// them in dependency order.
	RunModule func(*Pass) error
	// FactTypes lists the fact types the analyzer exports or imports.
	// An analyzer with a non-empty FactTypes runs over every package of
	// the module (not only the ones named on the command line) so its
	// facts exist before any downstream package is analyzed; diagnostics
	// are still reported only for the requested packages.
	FactTypes []Fact
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer *Analyzer
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Module is set for module analyzers only; the per-package fields
	// are then empty.
	Module []*Package

	facts       *factStore
	diagnostics []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer,
	})
}

// A Suite runs a set of analyzers over a sequence of packages presented in
// dependency order, carrying exported facts from each package to the ones
// that import it. One Suite corresponds to one tcavet invocation (or one
// analysistest fixture run); facts never leak between suites.
type Suite struct {
	analyzers []*Analyzer
	facts     *factStore
}

// NewSuite creates a suite over the given analyzers.
func NewSuite(analyzers []*Analyzer) *Suite {
	return &Suite{analyzers: analyzers, facts: newFactStore()}
}

// Run applies each of the suite's analyzers to the package and returns the
// combined diagnostics sorted by position. Packages must be presented in
// dependency order (dependencies first) or fact imports will come up
// empty; LoadModule already returns packages in that order.
func (s *Suite) Run(pkg *Package) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range s.analyzers {
		if a.Run == nil {
			continue
		}
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     s.facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		out = append(out, pass.diagnostics...)
	}
	sortDiagnostics(out)
	return out, nil
}

// RunModule applies the suite's module analyzers once to all packages,
// which must share one FileSet, and returns the diagnostics that fall in
// matched packages, sorted by position.
func (s *Suite) RunModule(pkgs []*Package) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	matched := make(map[*token.File]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			matched[fset.File(f.Pos())] = pkg.Matched
		}
	}
	var out []Diagnostic
	for _, a := range s.analyzers {
		if a.RunModule == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Module: pkgs, facts: s.facts}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diagnostics {
			if matched[fset.File(d.Pos)] {
				out = append(out, d)
			}
		}
	}
	sortDiagnostics(out)
	return out, nil
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Pos != ds[j].Pos {
			return ds[i].Pos < ds[j].Pos
		}
		return ds[i].Analyzer.Name < ds[j].Analyzer.Name
	})
}

// Named unwraps pointers and returns the defining package name and type
// name of a named type, e.g. ("sim", "Engine"). ok is false for unnamed
// types and types from the universe scope.
func Named(t types.Type) (pkgName, typeName string, ok bool) {
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", "", false
	}
	return obj.Pkg().Name(), obj.Name(), true
}

// MethodOn reports whether the call invokes a method with the given name
// on a receiver whose defining package and type match, resolving through
// the pass's type information. It returns false for non-method calls.
func MethodOn(pass *Pass, call *ast.CallExpr, pkgName, typeName, method string) bool {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return false
	}
	fn, okFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !okFn || fn.Name() != method {
		return false
	}
	sig, okSig := fn.Type().(*types.Signature)
	if !okSig || sig.Recv() == nil {
		return false
	}
	p, t, okNamed := Named(sig.Recv().Type())
	return okNamed && p == pkgName && t == typeName
}
