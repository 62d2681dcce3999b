// Package deadcode keeps the module free of package-level names that only
// tests reach. A declaration with no caller is code the simulator carries
// for nobody: it must still compile, be read and be kept in step with the
// model, yet no experiment, CLI or example can observe it. Because a name
// is dead only when no package in the whole module refers to it, the
// check is a module analyzer: it runs once, after every package is
// loaded.
package deadcode

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"tca/internal/analysis/framework"
)

// Analyzer reports package-level names, exported or not, without a
// non-test reference anywhere in the module.
var Analyzer = &framework.Analyzer{
	Name: "deadcode",
	Doc: `report package-level names that nothing outside tests refers to

Every package-level func, method, type, var and const declared in a
non-test file, exported or not and main packages included, must be
referenced from a non-test file somewhere in the module; references
inside the name's own declaration (for a type: its methods) do not count.
Never reported are _, init, and main in a main package. Exempt are the
root package (the public facade), packages that only _test.go files
import, methods that let a type satisfy a named interface of the module or
of a package it imports, Error/Unwrap/Is/As on error types, and methods of
types the root package re-exports by alias.`,
	RunModule: run,
}

// A candidate is one package-level declaration and the source ranges that make
// up its own declaration.
type candidate struct {
	obj  types.Object
	own  [][2]token.Pos
	used bool
}

func (c *candidate) inOwn(pos token.Pos) bool {
	for _, r := range c.own {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func run(pass *framework.Pass) error {
	pkgs := pass.Module
	root := rootPackage(pkgs)

	importedByCode := make(map[string]bool)
	importedByTests := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, path := range pkg.TestImports {
			importedByTests[path] = true
		}
		for _, f := range nonTestFiles(pass, pkg) {
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				importedByCode[path] = true
			}
		}
	}

	cands := make(map[types.Object]*candidate)
	var order []*candidate
	for _, pkg := range pkgs {
		if pkg == root || (importedByTests[pkg.Path] && !importedByCode[pkg.Path]) {
			continue
		}
		for _, c := range declared(pass, pkg) {
			cands[c.obj] = c
			order = append(order, c)
		}
	}

	for _, pkg := range pkgs {
		for _, f := range nonTestFiles(pass, pkg) {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if c := cands[origin(pkg.Info.Uses[id])]; c != nil && !c.inOwn(id.Pos()) {
					c.used = true
				}
				return true
			})
		}
	}

	exempt := exemptMethods(pkgs, root)
	for _, c := range order {
		if c.used || exempt[c.obj] {
			continue
		}
		pass.Reportf(c.obj.Pos(), "%s %s has no non-test reference", kind(c.obj), name(c.obj))
	}
	return nil
}

// rootPackage returns the package every other package is nested under —
// the module's root package — or nil.
func rootPackage(pkgs []*framework.Package) *framework.Package {
	for _, p := range pkgs {
		root := true
		for _, q := range pkgs {
			if q != p && !strings.HasPrefix(q.Path, p.Path+"/") {
				root = false
				break
			}
		}
		if root {
			return p
		}
	}
	return nil
}

func nonTestFiles(pass *framework.Pass, pkg *framework.Package) []*ast.File {
	var out []*ast.File
	for _, f := range pkg.Files {
		if !strings.HasSuffix(pass.Fset.File(f.Pos()).Name(), "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// declared collects the package's package-level declarations, leaving
// out the ones the language itself calls or that cannot be named. A
// type's own declaration spans its spec and its methods.
func declared(pass *framework.Pass, pkg *framework.Package) []*candidate {
	var out []*candidate
	byType := make(map[types.Object]*candidate)
	isMain := pkg.Types.Name() == "main"
	add := func(id *ast.Ident, node ast.Node) *candidate {
		obj := pkg.Info.Defs[id]
		if obj == nil || id.Name == "_" {
			return nil
		}
		if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() == nil &&
			(id.Name == "init" || isMain && id.Name == "main") {
			return nil
		}
		c := &candidate{obj: obj, own: [][2]token.Pos{{node.Pos(), node.End()}}}
		out = append(out, c)
		return c
	}
	var methods []*ast.FuncDecl
	for _, f := range nonTestFiles(pass, pkg) {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
				if d.Recv != nil {
					methods = append(methods, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if c := add(s.Name, s); c != nil {
							byType[c.obj] = c
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}
	for _, m := range methods {
		fn, ok := pkg.Info.Defs[m.Name].(*types.Func)
		if !ok {
			continue
		}
		if named, ok := deref(fn.Type().(*types.Signature).Recv().Type()).(*types.Named); ok {
			if c := byType[named.Obj()]; c != nil {
				c.own = append(c.own, [2]token.Pos{m.Pos(), m.End()})
			}
		}
	}
	return out
}

// exemptMethods returns the methods that are reachable without a direct
// reference: those satisfying a named interface (of the module or of any
// package it imports), the error methods of error types, and the methods
// of types the root package re-exports by alias.
func exemptMethods(pkgs []*framework.Package, root *framework.Package) map[types.Object]bool {
	exempt := make(map[types.Object]bool)
	// The lookup runs in the type's own package so that an unexported
	// method is found too.
	mark := func(tn *types.TypeName, name string) {
		if obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				exempt[fn.Origin()] = true
			}
		}
	}

	ifaces := make(map[string][]*types.Interface) // by method name
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, tn := range typeNames(p) {
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok || !iface.IsMethodSet() || isGeneric(tn.Type()) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				ifaces[iface.Method(i).Name()] = append(ifaces[iface.Method(i).Name()], iface)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
	}

	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, pkg := range pkgs {
		for _, tn := range typeNames(pkg.Types) {
			t := tn.Type()
			if _, isIface := t.Underlying().(*types.Interface); isIface || tn.IsAlias() || isGeneric(t) {
				continue
			}
			ptr := types.NewPointer(t)
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				name := ms.At(i).Obj().Name()
				for _, iface := range ifaces[name] {
					if types.Implements(t, iface) || types.Implements(ptr, iface) {
						mark(tn, name)
						break
					}
				}
			}
			if types.Implements(ptr, errorIface) {
				for _, name := range []string{"Error", "Unwrap", "Is", "As"} {
					mark(tn, name)
				}
			}
		}
	}

	if root != nil {
		for _, tn := range typeNames(root.Types) {
			if !tn.IsAlias() {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(types.Unalias(tn.Type())))
			for i := 0; i < ms.Len(); i++ {
				exempt[ms.At(i).Obj().(*types.Func).Origin()] = true
			}
		}
	}
	return exempt
}

func typeNames(p *types.Package) []*types.TypeName {
	var out []*types.TypeName
	for _, n := range p.Scope().Names() {
		if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
			out = append(out, tn)
		}
	}
	return out
}

func isGeneric(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// origin maps an instantiated generic func or method to its declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

func kind(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return "method"
		}
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// name qualifies a method with its receiver's type name.
func name(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	if named, ok := deref(recv.Type()).(*types.Named); ok {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}
