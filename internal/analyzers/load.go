package analyzers

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
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string // import path ("stcam/internal/wire")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	loader *Loader
}

// Loader parses and type-checks packages of one module without the go/build
// toolchain: module-local import paths resolve against the module root, and
// everything else (the standard library) goes through the source importer,
// which works offline. Packages are cached, so loading ./... type-checks each
// package exactly once.
type Loader struct {
	ModuleRoot string // absolute path of the directory holding go.mod
	ModulePath string // module path from go.mod ("stcam")

	// IncludeTests adds _test.go files of the package under test (not
	// external _test packages) to the parsed file set. Off by default: the
	// invariants stcamlint enforces concern production code, and test files
	// legitimately use raw clocks and fake transports.
	IncludeTests bool

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// checking guards against import cycles, which would otherwise recurse
	// forever; Go forbids them so hitting one means a load bug.
	checking map[string]bool
	// uses is testonly's module-wide use index, valid while the loader
	// still holds usesOver packages.
	uses     *usage
	usesOver int
}

// NewLoader locates the module root at or above dir and returns a loader for
// it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analyzers: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analyzers: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		checking:   map[string]bool{},
	}, nil
}

// LoadAll walks the module tree and loads every package, skipping testdata,
// hidden directories, and directories with no buildable Go files. The result
// is sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(p) {
			rel, rerr := filepath.Rel(l.ModuleRoot, p)
			if rerr != nil {
				return rerr
			}
			ip := l.ModulePath
			if rel != "." {
				ip = l.ModulePath + "/" + filepath.ToSlash(rel)
			}
			paths = append(paths, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []*Package
	for _, ip := range paths {
		p, err := l.Load(ip)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Load type-checks one module-local package by import path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.ModuleRoot
	if path != l.ModulePath {
		rel, ok := strings.CutPrefix(path, l.ModulePath+"/")
		if !ok {
			return nil, fmt.Errorf("analyzers: %s is not in module %s", path, l.ModulePath)
		}
		dir = filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	}
	return l.LoadDir(dir, path)
}

// LoadDir type-checks the package in dir under the given import path. The
// path does not need to correspond to dir's real location — fixture tests use
// this to load testdata packages as if they lived inside scoped trees like
// stcam/internal/wire.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("analyzers: import cycle through %s", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !l.IncludeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if l.IncludeTests && strings.HasSuffix(f.Name.Name, "_test") {
			continue // external test package: would not type-check with the rest
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analyzers: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	cfg := &types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analyzers: type-check %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Pkg: tpkg, Info: info, loader: l}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer over the module + standard library.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	return l.std.Import(path)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") && !strings.HasPrefix(n, ".") {
			return true
		}
	}
	return false
}
