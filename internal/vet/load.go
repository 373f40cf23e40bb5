// Package vet implements sgfs-vet, a repository-specific static
// analysis suite built purely on the standard library's go/ast,
// go/parser and go/types: eight analyzers for invariants this codebase
// depends on but the compiler cannot check. Every run loads the whole
// module (LoadModule) and applies the whole suite (Analyzers) to it;
// which findings a run reports is chosen afterwards (Select). Each job
// under the analyzers has one implementation:
//
//   - module.go: the Module every analyzer reads — declaration index,
//     call graph with interface dispatch, its SCC condensation and the
//     one bottom-up summary fixpoint, every function body and its CFG;
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
//   - syntax and types: swallowed-error (no discarded or unchecked
//     errors in non-test code);
//   - lock engine: lock-over-io (no mutex held across blocking
//     transport I/O), lock-order (no cycle in the module-wide
//     lock-acquisition graph), lockset-race (no access to a
//     mutex-guarded field with a provably empty lockset);
//   - obligation engine: resource-leak (connections, files and pool
//     buffers are released, stored or handed off on every path),
//     pool-lifecycle (no use after Put, double Put, or Put of an
//     escaped sync.Pool object);
//   - taint summaries: secret-flow (key material never reaches logs,
//     error strings or plaintext writes), unbounded-alloc (no
//     wire-decoded integer reaches a make or copy size unchecked).
//
// See DESIGN.md ("Static analysis: sgfs-vet") for the engines, the
// per-analyzer scorecard, the checks that replaced retired analyzers,
// and instructions for adding analyzers.
package vet

import (
	"errors"
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
}

// LoadModule parses and type-checks every package of the module
// containing dir. It is how every run loads code, so every run sees
// the whole module: which findings a run reports is chosen afterwards
// (Select), never what it loads or analyses. It returns the module
// root and the packages in directory order; a package that does not
// type-check is an error.
func LoadModule(dir string) (root string, pkgs []*Package, err error) {
	if root, err = findModuleRoot(dir); err != nil {
		return "", nil, err
	}
	l, err := newLoader(root)
	if err != nil {
		return "", nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return "", nil, err
	}
	for _, d := range dirs {
		pkg, err := l.loadDir(d)
		if err != nil {
			return "", nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return root, pkgs, nil
}

// Select returns the directories of the packages that patterns name,
// relative to the module root: `./...` (every package), a package
// directory, or a directory followed by `/...` (it and every package
// below it). A pattern that names no package is an error.
func Select(root string, pkgs []*Package, patterns []string) (map[string]bool, error) {
	dirs := make(map[string]bool)
	for _, pattern := range patterns {
		base, recursive := strings.CutSuffix(filepath.ToSlash(pattern), "...")
		dir := filepath.Join(root, filepath.FromSlash(base))
		matched := false
		for _, pkg := range pkgs {
			if pkg.Dir == dir || recursive && strings.HasPrefix(pkg.Dir, dir+string(filepath.Separator)) {
				dirs[pkg.Dir] = true
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("vet: %s names no package of the module", pattern)
		}
	}
	return dirs, nil
}

// loader parses and type-checks packages of a single module without
// go/packages: module-internal imports are resolved by mapping the
// import path onto the module directory tree and recursing; standard
// library imports are read from the compiler's export data, whose
// files `go list -export` names (type-checking the standard library
// from source took most of a run).
type loader struct {
	root       string
	modulePath string

	fset    *token.FileSet
	std     types.Importer
	exports map[string]string // standard-library import path -> export data file
	cache   map[string]*Package
	busy    map[string]bool
}

// newLoader creates a loader rooted at root, reading the module path
// from go.mod.
func newLoader(root string) (*loader, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
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
		return nil, fmt.Errorf("vet: no module directive in %s/go.mod", root)
	}
	l := &loader{
		root:       root,
		modulePath: modPath,
		fset:       token.NewFileSet(),
		exports:    make(map[string]string),
		cache:      make(map[string]*Package),
		busy:       make(map[string]bool),
	}
	l.std = importer.ForCompiler(l.fset, "gc", l.lookup)
	return l, l.listExports("./...")
}

// listExports records the export data of the standard-library
// packages the patterns depend on.
func (l *loader) listExports(patterns ...string) error {
	args := append([]string{"list", "-e", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.root
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("vet: go list -export: %w", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			l.exports[path] = file
		}
	}
	return nil
}

// lookup opens the export data of a standard-library package; one the
// module does not import (a fixture's) is listed on first use.
func (l *loader) lookup(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		if err := l.listExports(path); err != nil {
			return nil, err
		}
	}
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("vet: no export data for %s", path)
	}
	return os.Open(file)
}

// Import implements types.Importer so the loader can resolve the
// imports of the packages it checks.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.load(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.modulePath), "/")
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// loadDir loads the package in a directory of the module (which may
// lie under a testdata tree, as the analyzers' fixtures do).
func (l *loader) loadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("vet: %s is outside module %s", dir, l.root)
	}
	importPath := l.modulePath
	if rel != "." {
		importPath = l.modulePath + "/" + filepath.ToSlash(rel)
	}
	return l.load(importPath, abs)
}

// load loads the package at importPath from dir, caching results.
func (l *loader) load(importPath, dir string) (*Package, error) {
	if pkg, ok := l.cache[importPath]; ok {
		return pkg, nil
	}
	if l.busy[importPath] {
		return nil, fmt.Errorf("vet: import cycle through %s", importPath)
	}
	l.busy[importPath] = true
	defer delete(l.busy, importPath)

	pkg, err := l.check(importPath, dir)
	if err != nil {
		return nil, err
	}
	l.cache[importPath] = pkg
	return pkg, nil
}

// check parses and type-checks the non-test Go files of one directory.
func (l *loader) check(importPath, dir string) (*Package, error) {
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
	var typeErrs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("vet: typecheck %s: %w", importPath, errors.Join(typeErrs...))
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
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

// packageDirs lists the module directories containing Go packages,
// skipping testdata, vendor and hidden directories.
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

// findModuleRoot walks up from dir to the nearest directory holding a
// go.mod.
func findModuleRoot(dir string) (string, error) {
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
