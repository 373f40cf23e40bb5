package vet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/vet/testdata/src/goroutineleak"
)

// The checks that replaced analyzers (DESIGN.md, "Scorecard"). Each
// runs over the retired analyzer's fixture, which stays as its input,
// and must reject every case the analyzer flagged there. Two are
// module rules: checks over the parsed source of every non-test file,
// with no types and no dataflow. The third is leakcheck, which the
// test main of every tested package whose code starts goroutines runs.

// fileRule checks one parsed file; path is module-relative.
type fileRule func(fset *token.FileSet, path string, f *ast.File) []Diagnostic

func ruleFinding(fset *token.FileSet, rule string, n ast.Node, msg string) Diagnostic {
	return Diagnostic{Analyzer: rule, Pos: fset.Position(n.Pos()), Message: msg}
}

// atomicRule replaces atomic-misuse. It bans the sync/atomic functions
// (atomic.AddUint64(&x.n, 1)): with only typed atomics (atomic.Uint64
// and friends) a location is atomic by its type, and arithmetic or a
// plain read on it does not compile, so the mixed plain/atomic access
// atomic-misuse looked for cannot be written. It also flags the one
// misuse typed atomics still allow, x.Store(... x.Load() ...), a
// read-modify-write that loses concurrent updates.
func atomicRule(fset *token.FileSet, _ string, f *ast.File) []Diagnostic {
	pkgName := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"sync/atomic"` {
			pkgName = "atomic"
			if imp.Name != nil {
				pkgName = imp.Name.Name
			}
		}
	}
	var diags []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && pkgName != "" && id.Name == pkgName {
			diags = append(diags, ruleFinding(fset, "atomic", call,
				"sync/atomic function "+sel.Sel.Name+"; use a typed atomic (atomic.Uint64 and friends)"))
		}
		if sel.Sel.Name == "Store" && len(call.Args) == 1 && loadsFrom(call.Args[0], sel.X) {
			diags = append(diags, ruleFinding(fset, "atomic", call,
				exprString(sel.X)+".Store re-stores its own Load; the read-modify-write is not atomic (use Add or a CompareAndSwap loop)"))
		}
		return true
	})
	return diags
}

// loadsFrom reports whether e calls Load on the same expression as x.
func loadsFrom(e, x ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" &&
				exprString(sel.X) == exprString(x) {
				found = true
			}
		}
		return !found
	})
	return found
}

// mathRandFiles are the non-test files that may import math/rand, and
// what for. None of them may import a crypto package.
var mathRandFiles = map[string]string{
	"internal/oncrpc/client.go":        "the xid seed",
	"internal/oncrpc/reconnect.go":     "reconnect backoff jitter",
	"internal/proxy/replica_health.go": "probe backoff jitter",
	"internal/bench/mab.go":            "workload generator",
	"internal/bench/postmark.go":       "workload generator",
	"internal/bench/seismic.go":        "workload generator",
}

// randRule replaces weak-rand: math/rand is imported only by the files
// in mathRandFiles, and never by a file that also imports crypto or a
// crypto/* package, so weak randomness cannot become key material
// without a reviewed change to that list.
func randRule(fset *token.FileSet, path string, f *ast.File) []Diagnostic {
	var weak *ast.ImportSpec
	var crypto []string
	for _, imp := range f.Imports {
		switch p, _ := strconv.Unquote(imp.Path.Value); {
		case p == "math/rand" || p == "math/rand/v2":
			weak = imp
		case p == "crypto" || strings.HasPrefix(p, "crypto/"):
			crypto = append(crypto, p)
		}
	}
	if weak == nil {
		return nil
	}
	var diags []Diagnostic
	if _, ok := mathRandFiles[path]; !ok {
		diags = append(diags, ruleFinding(fset, "rand", weak, "imports math/rand but is not in mathRandFiles"))
	}
	if len(crypto) > 0 {
		diags = append(diags, ruleFinding(fset, "rand", weak, "imports math/rand next to "+strings.Join(crypto, ", ")))
	}
	return diags
}

// checkRule runs rule over the fixture testdata/src/<fixture>, whose
// `// want` comments it must match exactly, and over the module's
// non-test files, where it must find nothing. It returns the module's
// files, keyed by module-relative path.
func checkRule(t *testing.T, fixture string, rule fileRule) map[string]*ast.File {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	names, err := goFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	var diags []Diagnostic
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
		diags = append(diags, rule(fset, filepath.ToSlash(path), f)...)
	}
	matchWants(t, fset, files, diags)

	w := loadWholeModule(t)
	src := make(map[string]*ast.File)
	for _, pkg := range w.pkgs {
		for _, f := range pkg.Files {
			path := ModulePath(w.root, pkg.Fset.Position(f.Pos()).Filename)
			src[path] = f
			for _, d := range rule(pkg.Fset, path, f) {
				t.Errorf("%s", d)
			}
		}
	}
	return src
}

func TestAtomicMisuse(t *testing.T) {
	t.Parallel()
	checkRule(t, "atomicmisuse", atomicRule)
}

func TestWeakRand(t *testing.T) {
	t.Parallel()
	src := checkRule(t, "weakrand", randRule)
	// A listed file that stops importing math/rand leaves the list.
	for path := range mathRandFiles {
		f := src[path]
		if f == nil {
			t.Errorf("mathRandFiles lists %s, which does not exist", path)
			continue
		}
		if !slices.ContainsFunc(f.Imports, func(imp *ast.ImportSpec) bool { return imp.Path.Value == `"math/rand"` }) {
			t.Errorf("mathRandFiles lists %s, which does not import math/rand", path)
		}
	}
}

// TestGoroutineLeak: leakcheck flags each shape goroutine-leak flagged
// when it runs, and none of the shapes it accepted. Not parallel: it
// counts the goroutines of the whole test binary.
func TestGoroutineLeak(t *testing.T) {
	for name, start := range goroutineleak.Leaks {
		base := runtime.NumGoroutine()
		release := start()
		if leakcheck.Settle(base, 100*time.Millisecond) == nil {
			t.Errorf("%s: blocked goroutine not flagged", name)
		}
		release()
		if err := leakcheck.Settle(base, leakcheck.Grace); err != nil {
			t.Errorf("%s, released: %v", name, err)
		}
	}
	for name, start := range goroutineleak.Clean {
		base := runtime.NumGoroutine()
		start()()
		if err := leakcheck.Settle(base, leakcheck.Grace); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
