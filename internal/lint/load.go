package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the module under analysis. Only
// non-test sources are loaded: dynalint enforces invariants on production
// code, while tests are free to use wall clocks and ad-hoc randomness.
type Package struct {
	Dir        string // absolute directory
	ImportPath string
	Name       string
	Filenames  []string // absolute, parallel to Files
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Module is a loaded, type-checked module: every package found under Root,
// in dependency (topological) order.
type Module struct {
	Root string // absolute module root
	Path string // module path from go.mod ("fixture" when absent)
	Fset *token.FileSet
	Pkgs []*Package
}

// LoadModule parses and type-checks every package rooted at dir (a module
// root containing go.mod, or a bare fixture tree). Directories named
// testdata, hidden directories, and _test.go files are skipped. Standard
// library imports are resolved through the toolchain importer; module-
// internal imports are resolved against the packages being loaded.
func LoadModule(dir string) (*Module, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath := modulePath(root)
	fset := token.NewFileSet()

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	// Parse every package first so the import graph is known before
	// type-checking begins.
	byPath := make(map[string]*Package)
	for _, d := range dirs {
		pkg, err := parseDir(fset, root, modPath, d)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			continue // no non-test Go files
		}
		byPath[pkg.ImportPath] = pkg
	}

	order, err := topoOrder(byPath, modPath)
	if err != nil {
		return nil, err
	}

	imp := &moduleImporter{
		std:  importer.Default(),
		pkgs: make(map[string]*types.Package),
	}
	for _, pkg := range order {
		if err := typeCheck(fset, pkg, imp); err != nil {
			return nil, fmt.Errorf("%s: %w", pkg.ImportPath, err)
		}
		imp.pkgs[pkg.ImportPath] = pkg.Types
	}
	return &Module{Root: root, Path: modPath, Fset: fset, Pkgs: order}, nil
}

// modulePath reads the module path from go.mod under root, defaulting to
// "fixture" for bare trees (the lint test fixtures have no go.mod).
func modulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "fixture"
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return "fixture"
}

// packageDirs walks root collecting directories that may hold a package.
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
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

func parseDir(fset *token.FileSet, root, modPath, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	if rel == "." {
		pkg.ImportPath = modPath
	} else {
		pkg.ImportPath = modPath + "/" + filepath.ToSlash(rel)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		full := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, full, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		}
		if f.Name.Name != pkg.Name {
			return nil, fmt.Errorf("%s: mixed package names %q and %q", dir, pkg.Name, f.Name.Name)
		}
		pkg.Filenames = append(pkg.Filenames, full)
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// imports lists the import paths of pkg that live inside the module.
func moduleImports(pkg *Package, modPath string) []string {
	var out []string
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if p == modPath || strings.HasPrefix(p, modPath+"/") {
				out = append(out, p)
			}
		}
	}
	return out
}

// topoOrder sorts packages so every module-internal dependency precedes its
// importers.
func topoOrder(byPath map[string]*Package, modPath string) ([]*Package, error) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int)
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		pkg, ok := byPath[path]
		if !ok {
			return nil // import of a module path not under the loaded root
		}
		switch color[path] {
		case gray:
			return fmt.Errorf("import cycle through %s", path)
		case black:
			return nil
		}
		color[path] = gray
		for _, dep := range moduleImports(pkg, modPath) {
			if dep == path {
				continue
			}
			if err := visit(dep); err != nil {
				return err
			}
		}
		color[path] = black
		order = append(order, pkg)
		return nil
	}
	paths := make([]string, 0, len(byPath))
	for p := range byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// moduleImporter resolves module-internal imports from the packages loaded
// so far and everything else through the toolchain importer.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

func typeCheck(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	conf := types.Config{
		Importer: imp,
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(pkg.ImportPath, fset, pkg.Files, pkg.Info)
	if err != nil {
		return err
	}
	pkg.Types = tpkg
	return nil
}
