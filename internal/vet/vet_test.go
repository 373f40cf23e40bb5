package vet

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/vet/cfg"
)

var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// runFixture loads testdata/src/<name>, runs one analyzer over it, and
// checks the diagnostics against `// want "substr"` comments: every
// diagnostic must land on a line carrying a matching expectation and
// every expectation must be consumed.
func runFixture(t *testing.T, name string, a Analyzer) {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture does not typecheck: %v", terr)
	}

	type key struct {
		file string
		line int
	}
	want := make(map[key][]string)
	expectations := 0
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					k := key{pos.Filename, pos.Line}
					want[k] = append(want[k], m[1])
					expectations++
				}
			}
		}
	}
	if expectations == 0 {
		t.Fatalf("fixture %s declares no expectations", name)
	}

	for _, d := range RunAll([]*Package{pkg}, []Analyzer{a}) {
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

func TestAtomicMisuse(t *testing.T) {
	t.Parallel()
	runFixture(t, "atomicmisuse", AtomicMisuse{})
}

func TestSwallowedError(t *testing.T) {
	t.Parallel()
	runFixture(t, "swallowederr", SwallowedError{})
}

func TestLockOrder(t *testing.T) {
	t.Parallel()
	runFixture(t, "lockorder", LockOrder{})
}

func TestCtxDeadline(t *testing.T) {
	t.Parallel()
	runFixture(t, "ctxdeadline", CtxDeadline{})
}

func TestGoroutineLeak(t *testing.T) {
	t.Parallel()
	runFixture(t, "goroutineleak", GoroutineLeak{})
}

func TestReplayTableSync(t *testing.T) {
	t.Parallel()
	runFixture(t, "replaytable", ReplayTableSync{})
}

func TestSecretFlow(t *testing.T) {
	t.Parallel()
	runFixture(t, "secretflow", SecretFlow{})
}

func TestUnboundedAlloc(t *testing.T) {
	t.Parallel()
	runFixture(t, "unboundedalloc", UnboundedAlloc{})
}

func TestWeakRand(t *testing.T) {
	t.Parallel()
	runFixture(t, "weakrand", WeakRand{})
}

func TestResourceLeak(t *testing.T) {
	t.Parallel()
	runFixture(t, "resourceleak", ResourceLeak{})
}

func TestRetrySafety(t *testing.T) {
	t.Parallel()
	runFixture(t, "retrysafety", RetrySafety{})
}

func TestSecretFlowDeepChain(t *testing.T) {
	t.Parallel()
	runFixture(t, "secretchain", SecretFlow{})
}

func TestSummaryRecursion(t *testing.T) {
	t.Parallel()
	runFixture(t, "summaryrec", SecretFlow{})
}

// loadFixturePkg loads one testdata/src package for tests that drive
// analyzer internals directly instead of going through runFixture.
func loadFixturePkg(t *testing.T, name string) *Package {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("fixture does not typecheck: %v", terr)
	}
	return pkg
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
	if testing.Short() {
		t.Skip("analyzes the whole module; skipped in -short mode")
	}
	t.Parallel()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	bodies := 0
	for _, tgt := range NewModule(pkgs).bodies {
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

func TestCtxDeadlinePackageFilter(t *testing.T) {
	t.Parallel()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "ctxdeadline"))
	if err != nil {
		t.Fatal(err)
	}
	a := CtxDeadline{Packages: []string{"some/other/pkg"}}
	if diags := RunAll([]*Package{pkg}, []Analyzer{a}); len(diags) != 0 {
		t.Fatalf("filtered analyzer still reported %d diagnostics", len(diags))
	}
}

func TestLockOverIOPackageFilter(t *testing.T) {
	t.Parallel()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "lockio"))
	if err != nil {
		t.Fatal(err)
	}
	a := LockOverIO{Packages: []string{"some/other/pkg"}}
	if diags := a.Run(pkg); len(diags) != 0 {
		t.Fatalf("filtered analyzer still reported %d diagnostics", len(diags))
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
	il, err := LoadIgnore(path)
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

	if _, err := LoadIgnore(filepath.Join(dir, "absent")); err != nil {
		t.Errorf("missing ignore file should load as empty, got %v", err)
	}
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("too few\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadIgnore(bad); err == nil {
		t.Error("malformed entry should be rejected")
	}
}

func TestPackageDirsSkipsTestdata(t *testing.T) {
	t.Parallel()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := PackageDirs(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("PackageDirs included testdata dir %s", d)
		}
	}
	if len(dirs) == 0 {
		t.Fatal("PackageDirs found no packages")
	}
}
