package framework

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and type-checked package of the module under
// analysis.
type Package struct {
	Path  string // import path, e.g. "tca/internal/sim"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Matched reports whether the package matched the load patterns.
	// Fact-producing analyzers run over every package so cross-package
	// facts exist; drivers report diagnostics only for matched ones.
	Matched bool
	// TestImports lists the import paths of the package's _test.go files.
	TestImports []string
}

// LoadModule parses and type-checks every non-test package of the module
// rooted at root (whose module path is modPath) and returns ALL of them in
// dependency order, with Matched set on the ones matching patterns.
// Patterns follow the go tool's shape: "./..." matches everything,
// "./internal/..." a subtree, and "./internal/sim" a single package. Test
// files are excluded: tcavet checks the simulator itself; its own fixtures
// exercise the analyzers. Returning unmatched packages too is what lets
// fact-based analyzers see a type's defining package before the packages
// that use it, regardless of which packages were asked for.
func LoadModule(root, modPath string, patterns []string) ([]*Package, error) {
	fset := token.NewFileSet()
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	parsed := make(map[string]*Package) // by import path
	imports := make(map[string][]string)
	for _, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if err != nil {
			if _, noGo := err.(*build.NoGoError); noGo {
				continue
			}
			return nil, fmt.Errorf("tcavet: %s: %w", dir, err)
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg := &Package{Path: path, Dir: dir, Fset: fset, TestImports: append(bp.TestImports, bp.XTestImports...)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
		}
		parsed[path] = pkg
		imports[path] = bp.Imports
	}

	order, err := topoSort(parsed, imports, modPath)
	if err != nil {
		return nil, err
	}

	imp := &chainImporter{
		modPath: modPath,
		local:   make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "source", nil),
	}
	for _, path := range order {
		pkg := parsed[path]
		if err := typeCheck(pkg, imp); err != nil {
			return nil, err
		}
		imp.local[path] = pkg.Types
	}

	var out []*Package
	for _, path := range order {
		pkg := parsed[path]
		pkg.Matched = matchesAny(patterns, modPath, path)
		out = append(out, pkg)
	}
	return out, nil
}

// packageDirs walks root and returns every directory that may hold a
// package, skipping VCS metadata, testdata trees and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// topoSort orders module-local packages so every package follows its
// module-local imports.
func topoSort(parsed map[string]*Package, imports map[string][]string, modPath string) ([]string, error) {
	paths := make([]string, 0, len(parsed))
	for p := range parsed {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var order []string
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("tcavet: import cycle through %s", path)
		}
		state[path] = visiting
		deps := append([]string(nil), imports[path]...)
		sort.Strings(deps)
		for _, dep := range deps {
			if _, local := parsed[dep]; local && isModuleLocal(dep, modPath) {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

func isModuleLocal(path, modPath string) bool {
	return path == modPath || strings.HasPrefix(path, modPath+"/")
}

// typeCheck populates pkg.Types and pkg.Info.
func typeCheck(pkg *Package, imp types.Importer) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.Path, pkg.Fset, pkg.Files, info)
	if err != nil {
		return fmt.Errorf("tcavet: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// chainImporter resolves module-local import paths from the packages the
// loader has already checked and delegates everything else (the standard
// library) to the source importer.
type chainImporter struct {
	modPath string
	local   map[string]*types.Package
	std     types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if isModuleLocal(path, c.modPath) {
		if pkg, ok := c.local[path]; ok {
			return pkg, nil
		}
		return nil, fmt.Errorf("tcavet: module package %s not loaded (dependency order bug)", path)
	}
	return c.std.Import(path)
}

// matchesAny reports whether the package path matches one of the go-style
// patterns, interpreted relative to the module root.
func matchesAny(patterns []string, modPath, pkgPath string) bool {
	if len(patterns) == 0 {
		return true
	}
	rel := "."
	if pkgPath != modPath {
		rel = "./" + strings.TrimPrefix(pkgPath, modPath+"/")
	}
	for _, pat := range patterns {
		pat = strings.TrimSuffix(pat, "/")
		switch {
		case pat == "./..." || pat == "all":
			return true
		case strings.HasSuffix(pat, "/..."):
			prefix := strings.TrimSuffix(pat, "/...")
			if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
				return true
			}
		case pat == rel || pat == pkgPath:
			return true
		}
	}
	return false
}
