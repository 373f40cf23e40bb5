// Package vet implements sgfs-vet, a repository-specific static
// analysis suite built purely on the standard library's go/ast,
// go/parser and go/types: twelve analyzers for invariants this
// codebase depends on but the compiler cannot check. Each job under
// them has one implementation:
//
//   - module.go: the Module every module analyzer reads — declaration
//     index, call graph with interface dispatch, its SCC condensation
//     and the one bottom-up summary fixpoint, every function body and
//     its CFG;
//   - internal/vet/cfg: CFG builder, worklist dataflow solver, taint
//     engine;
//   - locks.go: the lock engine — which mutexes are held here;
//   - obligation.go: the obligation engine — must-discharge analysis
//     with alias tracking and per-function summaries;
//   - summary.go: taint summaries (what flows from a function's inputs
//     to its results and to sinks).
//
// The analyzers, by what they stand on:
//
//   - per package, syntactic: swallowed-error (no discarded or
//     unchecked errors in non-test code), goroutine-leak
//     (no spawned goroutine blocks on a channel with no cancellation
//     edge);
//   - lock engine: lock-over-io (no mutex held across blocking
//     transport I/O in the RPC/proxy/channel packages), lock-order (no
//     cycle in the module-wide lock-acquisition graph), lockset-race
//     (no access to a mutex-guarded field with a provably empty
//     lockset);
//   - obligation engine: resource-leak (connections, files and pool
//     buffers are released, stored or handed off on every path),
//     pool-lifecycle (no use after Put, double Put, or Put of an
//     escaped sync.Pool object);
//   - taint summaries: secret-flow (key material never reaches logs,
//     error strings or plaintext writes), unbounded-alloc (no
//     wire-decoded integer reaches a make or copy size unchecked),
//     weak-rand (math/rand never becomes cryptographic material);
//   - call graph and module index: ctx-deadline (upstream RPCs only
//     under deadline-bearing contexts), atomic-misuse (no plain access
//     to a location accessed via sync/atomic elsewhere).
//
// See DESIGN.md ("Static analysis: sgfs-vet") for the engines, the
// per-analyzer scorecard and instructions for adding analyzers.
package vet

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

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module without
// go/packages: module-internal imports are resolved by mapping the
// import path onto the module directory tree and recursing; standard
// library imports fall back to the compiler's source importer.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset  *token.FileSet
	std   types.Importer
	cache map[string]*Package
	busy  map[string]bool
}

// NewLoader creates a loader rooted at moduleRoot, reading the module
// path from go.mod.
func NewLoader(moduleRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleRoot, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("vet: read go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("vet: no module directive in %s/go.mod", moduleRoot)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		cache:      make(map[string]*Package),
		busy:       make(map[string]bool),
	}, nil
}

// Import implements types.Importer so the loader can resolve the
// imports of the packages it checks.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// load loads a module package by import path, caching results.
func (l *Loader) load(importPath string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.busy[importPath] {
		return nil, fmt.Errorf("vet: import cycle through %s", importPath)
	}
	l.busy[importPath] = true
	defer delete(l.busy, importPath)

	pkg, err := l.check(importPath, l.dirFor(importPath))
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// LoadDir loads the package in a specific directory (which may lie
// under a testdata tree), assigning it a synthetic import path when it
// falls outside the module mapping.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.ModuleRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("vet: %s is outside module %s", dir, l.ModuleRoot)
	}
	importPath := l.ModulePath
	if rel != "." {
		importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	pkg, err := l.check(importPath, abs)
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// check parses and type-checks the non-test Go files of one directory.
func (l *Loader) check(importPath, dir string) (*Package, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("vet: no Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("vet: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if tpkg == nil {
		return nil, fmt.Errorf("vet: typecheck %s: %w", importPath, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return pkg, nil
}

// goFiles lists the buildable non-test Go files of dir, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// PackageDirs expands a ./... style pattern (relative to the module
// root) into the module directories containing Go packages, skipping
// testdata, vendor and hidden directories.
func PackageDirs(moduleRoot, pattern string) ([]string, error) {
	pattern = filepath.ToSlash(pattern)
	base := strings.TrimSuffix(pattern, "...")
	recursive := base != pattern
	base = strings.TrimSuffix(base, "/")
	if base == "" || base == "." {
		base = "."
	}
	root := filepath.Join(moduleRoot, filepath.FromSlash(strings.TrimPrefix(base, "./")))
	if !recursive {
		return []string{root}, nil
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// FindModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("vet: no go.mod found above %s", dir)
		}
		abs = parent
	}
}
