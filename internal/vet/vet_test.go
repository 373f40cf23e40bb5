package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/vet/cfg"
)

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// runFixture loads testdata/src/<name>, runs one analyzer over it, and
// checks the diagnostics against its `// want` comments (matchWants).
func runFixture(t *testing.T, name string, a Analyzer) {
	t.Helper()
	pkg := loadFixturePkg(t, name)
	matchWants(t, pkg.Fset, pkg.Files, RunAll([]*Package{pkg}, []Analyzer{a}))
}

// matchWants checks diagnostics against `// want "substr"` comments in
// files: every diagnostic must land on a line carrying a matching
// expectation and every expectation must be consumed.
func matchWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	want := make(map[key][]string)
	expectations := 0
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					k := key{pos.Filename, pos.Line}
					want[k] = append(want[k], m[1])
					expectations++
				}
			}
		}
	}
	if expectations == 0 {
		t.Fatal("fixture declares no expectations")
	}

	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		matched := false
		for i, sub := range want[k] {
			if strings.Contains(d.Message, sub) {
				want[k] = append(want[k][:i], want[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, subs := range want {
		for _, sub := range subs {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", k.file, k.line, sub)
		}
	}
}

func TestLockOverIO(t *testing.T) {
	t.Parallel()
	runFixture(t, "lockio", LockOverIO{})
}

func TestLocksetRace(t *testing.T) {
	t.Parallel()
	runFixture(t, "locksetrace", LocksetRace{})
}

func TestPoolLifecycle(t *testing.T) {
	t.Parallel()
	runFixture(t, "poollifecycle", PoolLifecycle{})
}

func TestSwallowedError(t *testing.T) {
	t.Parallel()
	runFixture(t, "swallowederr", SwallowedError{})
}

func TestLockOrder(t *testing.T) {
	t.Parallel()
	runFixture(t, "lockorder", LockOrder{})
}

func TestSecretFlow(t *testing.T) {
	t.Parallel()
	runFixture(t, "secretflow", SecretFlow{})
}

func TestUnboundedAlloc(t *testing.T) {
	t.Parallel()
	runFixture(t, "unboundedalloc", UnboundedAlloc{})
}

func TestResourceLeak(t *testing.T) {
	t.Parallel()
	runFixture(t, "resourceleak", ResourceLeak{})
}

func TestSecretFlowDeepChain(t *testing.T) {
	t.Parallel()
	runFixture(t, "secretchain", SecretFlow{})
}

func TestSummaryRecursion(t *testing.T) {
	t.Parallel()
	runFixture(t, "summaryrec", SecretFlow{})
}

// loadFixturePkg loads one testdata/src package.
func loadFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.loadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// wholeModule is one load and one analysis of the real module, shared
// by the tests that need either.
var wholeModule = sync.OnceValues(func() (*moduleRun, error) {
	root, pkgs, err := LoadModule(".")
	if err != nil {
		return nil, err
	}
	return &moduleRun{root: root, pkgs: pkgs, diags: RunAll(pkgs, Analyzers())}, nil
})

type moduleRun struct {
	root  string
	pkgs  []*Package
	diags []Diagnostic
}

func loadWholeModule(t *testing.T) *moduleRun {
	t.Helper()
	if testing.Short() {
		t.Skip("analyzes the whole module; skipped in -short mode")
	}
	w, err := wholeModule()
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestSecretFlowDeepChainIntraprocedural pins what the call-graph
// summaries buy: the same three-level fixture reports nothing when the
// summaries are disabled. If this starts failing with findings, the
// fixture no longer needs interprocedural reasoning and has stopped
// guarding the summary engine.
func TestSecretFlowDeepChainIntraprocedural(t *testing.T) {
	t.Parallel()
	pkg := loadFixturePkg(t, "secretchain")
	a := SecretFlow{Intraprocedural: true}
	for _, d := range RunAll([]*Package{pkg}, []Analyzer{a}) {
		t.Errorf("intraprocedural analysis should miss the deep chain, found: %s", d)
	}
}

// TestSummaryFixpointConvergence drives computeSummaries directly over
// the recursive fixture and checks the facts that only a converged
// cycle can produce: the sink bit travels backwards around the
// ping/pong cycle and the pass-through bit around echo's self-cycle.
func TestSummaryFixpointConvergence(t *testing.T) {
	t.Parallel()
	pkg := loadFixturePkg(t, "summaryrec")
	pol := summaryPolicy{
		mkSpec: func(pkg *Package) *cfg.Spec {
			return &cfg.Spec{
				Info: pkg.Info,
				SourceOf: func(e ast.Expr) (string, bool) {
					if call, ok := e.(*ast.CallExpr); ok {
						if fn, _ := stdCallee(pkg, call); fn != nil && fn.Name() == "hkdfExpand" {
							return "derived key material", true
						}
					}
					return "", false
				},
			}
		},
		sinkOf: func(pkg *Package, call *ast.CallExpr) (int, string) {
			if fn, path := stdCallee(pkg, call); fn != nil && path == "log" {
				return 0, "log." + fn.Name()
			}
			return -1, ""
		},
	}
	ss := computeSummaries(NewModule([]*Package{pkg}), pol)

	fnByName := func(name string) *types.Func {
		obj := pkg.Types.Scope().Lookup(name)
		fn, ok := obj.(*types.Func)
		if !ok {
			t.Fatalf("fixture function %s not found", name)
		}
		return fn
	}
	for _, name := range []string{"ping", "pong"} {
		sum := ss.fns[fnByName(name)]
		if sum == nil {
			t.Fatalf("no summary computed for %s", name)
		}
		if len(sum.ParamToSink) == 0 || sum.ParamToSink[0] == "" {
			t.Errorf("%s: ParamToSink[0] = %q, want the log sink propagated around the cycle", name, sum.ParamToSink)
		}
	}
	echo := ss.fns[fnByName("echo")]
	if echo == nil {
		t.Fatal("no summary computed for echo")
	}
	if len(echo.ParamToReturn) == 0 || !echo.ParamToReturn[0] {
		t.Errorf("echo: ParamToReturn = %v, want the pass-through found across the self-cycle", echo.ParamToReturn)
	}
	stops := ss.fns[fnByName("stops")]
	if stops == nil {
		t.Fatal("no summary computed for stops")
	}
	if stops.ReturnDesc != "" || stops.ParamToReturn[0] || stops.ParamToSink[0] != "" {
		t.Errorf("stops: summary %+v, want no flows for the taint-free cycle", stops)
	}
}

// TestCFGWholeModule is the crash/termination regression for the CFG
// builder and solver: every function body in the real module (function
// literals included) must build and reach a dataflow fixpoint without
// panicking and within a hard iteration budget.
func TestCFGWholeModule(t *testing.T) {
	t.Parallel()
	w := loadWholeModule(t)
	bodies := 0
	for _, tgt := range NewModule(w.pkgs).bodies {
		bodies++
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: CFG panicked: %v", tgt.pkg.Fset.Position(tgt.body.Pos()), r)
				}
			}()
			g := cfg.Build(tgt.body)
			steps := 0
			tr := cfg.Transfer{
				Entry: 0,
				Node: func(f cfg.Fact, n ast.Node) cfg.Fact {
					steps++
					if steps > 2_000_000 {
						t.Fatalf("%s: dataflow did not terminate", tgt.pkg.Fset.Position(tgt.body.Pos()))
					}
					return f
				},
				Edge:  func(f cfg.Fact, e cfg.Edge) cfg.Fact { return f },
				Join:  func(a, b cfg.Fact) cfg.Fact { return a },
				Equal: func(a, b cfg.Fact) bool { return true },
			}
			in := cfg.Solve(g, tr)
			visited := 0
			cfg.Replay(g, tr, in, func(f cfg.Fact, n ast.Node) { visited++ })
			if len(tgt.body.List) > 0 && visited == 0 {
				t.Errorf("%s: non-empty body replayed zero nodes", tgt.pkg.Fset.Position(tgt.body.Pos()))
			}
		}()
	}
	if bodies == 0 {
		t.Fatal("module yielded no function bodies")
	}
}

func TestIgnoreList(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	path := filepath.Join(dir, ".sgfsvet-ignore")
	content := "# comment\n" +
		"swallowed-error internal/foo result of x.Close\n" +
		"* internal/bar anything at all\n" +
		"lock-over-io never/matches nothing here\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	il, err := LoadIgnore(path, "/repo")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(analyzer, file, msg string) Diagnostic {
		d := Diagnostic{Analyzer: analyzer, Message: msg}
		d.Pos.Filename = file
		return d
	}
	if !il.Match(mk("swallowed-error", "/repo/internal/foo/a.go", "result of x.Close includes an error")) {
		t.Error("expected analyzer+path+message match")
	}
	if !il.Match(mk("lock-over-io", "/repo/internal/bar/b.go", "anything at all, really")) {
		t.Error("expected wildcard analyzer match")
	}
	if il.Match(mk("lock-over-io", "/repo/internal/foo/a.go", "result of x.Close includes an error")) {
		t.Error("analyzer mismatch must not match")
	}
	if il.Match(mk("swallowed-error", "/repo/internal/foo/a.go", "different message")) {
		t.Error("message mismatch must not match")
	}
	unused := il.Unused()
	if len(unused) != 1 || unused[0] != 4 {
		t.Errorf("Unused() = %v, want [4]", unused)
	}

	if _, err := LoadIgnore(filepath.Join(dir, "absent"), dir); err != nil {
		t.Errorf("missing ignore file should load as empty, got %v", err)
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("too few\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIgnore(bad, dir); err == nil {
		t.Error("malformed entry should be rejected")
	}
}

// TestIgnoreListModuleRelative: path fragments are prefixes of the
// module-relative path, so an entry for a file at the module root
// matches whatever the checkout's directory is called, and matches
// nothing deeper that merely ends the same way.
func TestIgnoreListModuleRelative(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), ".sgfsvet-ignore")
	if err := os.WriteFile(path, []byte("swallowed-error sgfs.go .Close includes an error\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	root := "/home/u/src/any-name-at-all"
	il, err := LoadIgnore(path, root)
	if err != nil {
		t.Fatal(err)
	}
	d := Diagnostic{Analyzer: "swallowed-error", Message: "result of c.Close includes an error"}
	d.Pos.Filename = root + "/internal/cmd/sgfs.go"
	if il.Match(d) {
		t.Error("root-level entry matched a file deeper in the module")
	}
	d.Pos.Filename = root + "/sgfs.go"
	if !il.Match(d) {
		t.Error("root-level entry missed its file under an arbitrarily named root")
	}
}

func TestPackageDirsSkipsTestdata(t *testing.T) {
	t.Parallel()
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("packageDirs included testdata dir %s", d)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("packageDirs found no packages")
	}
}

// TestResourceLeakSummaryScope: oncrpc's acceptedResult writes
// through its pooled encoder's Codec view and returns the encoder, so
// its resource-leak summary returns the pool buffer. Codec
// (internal/xdr) stores its receiver in a field of itself; that store
// must not count as releasing the encoder.
func TestResourceLeakSummaryScope(t *testing.T) {
	t.Parallel()
	m := NewModule(loadWholeModule(t).pkgs)
	a := &obAnalysis{m: m, pol: leakPolicy{}, sums: make(map[*types.Func]*obSummary),
		siteObs: make(map[ast.Node]*obligation), paramObs: make(map[types.Object]*obligation)}
	m.bottomUp(a.summarize)
	for fn, sum := range a.sums {
		if fn.Name() == "acceptedResult" && fn.Pkg().Path() == "repro/internal/oncrpc" {
			if sum.Returns != "pool buffer" {
				t.Fatalf("acceptedResult: summary %+v, want it to return the pool buffer", *sum)
			}
			return
		}
	}
	t.Fatal("no summary of oncrpc.acceptedResult")
}

// TestScopeInvariant: a run's patterns choose which findings it
// reports, never what it concludes. That holds because every run loads
// and analyses the whole module (LoadModule, RunAll); patterns reach
// only Select, which picks the packages whose findings print. Each
// package's own pattern must pick exactly that package, ./... every
// package, and a pattern naming none is an error.
func TestScopeInvariant(t *testing.T) {
	t.Parallel()
	w := loadWholeModule(t)
	all, err := Select(w.root, w.pkgs, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(w.pkgs) {
		t.Errorf("./... selects %d of %d packages", len(all), len(w.pkgs))
	}
	for _, pkg := range w.pkgs {
		rel, err := filepath.Rel(w.root, pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		pattern := "./" + filepath.ToSlash(rel)
		if sel, err := Select(w.root, w.pkgs, []string{pattern}); err != nil || len(sel) != 1 || !sel[pkg.Dir] {
			t.Errorf("%s selects %v (err %v), want only its own package", pattern, sel, err)
		}
	}
	if _, err := Select(w.root, w.pkgs, []string{"./no/such/dir"}); err == nil {
		t.Error("a pattern naming no package is not an error")
	}
}
