package cfg

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseFunc type-checks src (a full file) and returns the named
// function's body plus the type info.
func parseFunc(t *testing.T, src, name string) (*ast.BlockStmt, *types.Info, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default(), Error: func(error) {}}
	if _, err := conf.Check("p", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd.Body, info, fset
		}
	}
	t.Fatalf("function %s not found", name)
	return nil, nil, nil
}

func TestBuildShapes(t *testing.T) {
	t.Parallel()
	const src = `package p

func f(a bool) int {
	x := 0
	if a {
		x = 1
	} else {
		x = 2
	}
	for i := 0; i < 3; i++ {
		x += i
	}
	switch x {
	case 1:
		return 1
	default:
	}
	return x
}
`
	body, _, _ := parseFunc(t, src, "f")
	g := Build(body)
	if g.Entry == nil || g.Exit == nil {
		t.Fatal("missing entry/exit")
	}
	if !g.Reachable(g.Exit) {
		t.Fatal("exit unreachable")
	}
	// Every non-exit reachable block must have at least one successor.
	for _, b := range g.Blocks {
		if b == g.Exit || !g.Reachable(b) {
			continue
		}
		if len(b.Succs) == 0 {
			t.Errorf("reachable block %d has no successors", b.Index)
		}
	}
	// The if must produce at least one conditional edge pair.
	condEdges := 0
	for _, b := range g.Blocks {
		for _, e := range b.Succs {
			if e.Cond != nil {
				condEdges++
			}
		}
	}
	if condEdges < 4 { // if (2) + for (2), switch adds more
		t.Errorf("want >=4 conditional edges, got %d", condEdges)
	}
}

func TestBuildUnreachable(t *testing.T) {
	t.Parallel()
	const src = `package p

func f() int {
	return 1
	x := 2 // unreachable
	return x
}
`
	body, _, _ := parseFunc(t, src, "f")
	g := Build(body)
	unreached := 0
	for _, b := range g.Blocks {
		if !g.Reachable(b) {
			unreached++
		}
	}
	if unreached == 0 {
		t.Error("expected an unreachable block after return")
	}
}

func TestBuildLabeledBreak(t *testing.T) {
	t.Parallel()
	const src = `package p

func f(n int) int {
	s := 0
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j == 3 {
				break outer
			}
			s++
		}
	}
	return s
}
`
	body, _, _ := parseFunc(t, src, "f")
	g := Build(body)
	if !g.Reachable(g.Exit) {
		t.Fatal("exit unreachable through labeled break")
	}
}

// taintHarness runs the taint engine over fn with src()/srcInt() as
// sources and sink(x) as the sink, returning "line:desc" strings for
// every tainted sink argument.
func taintHarness(t *testing.T, source, fn string, bound bool) []string {
	t.Helper()
	body, info, fset := parseFunc(t, source, fn)
	var hits []string
	spec := &Spec{
		Info: info,
		SourceOf: func(e ast.Expr) (string, bool) {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return "", false
			}
			if id, ok := call.Fun.(*ast.Ident); ok && strings.HasPrefix(id.Name, "src") {
				return id.Name, true
			}
			return "", false
		},
		BoundSanitizer: bound,
		Sink: func(n ast.Node, taintOf func(ast.Expr) *Source) {
			Inspect(n, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "sink" {
					return true
				}
				for _, a := range call.Args {
					if s := taintOf(a); s != nil {
						hits = append(hits, fmt.Sprintf("%d:%s", fset.Position(call.Pos()).Line, s.Desc))
					}
				}
				return true
			})
		},
	}
	Run(Build(body), spec)
	return hits
}

const taintSrc = `package p

func src() []byte   { return nil }
func srcInt() int   { return 0 }
func sink(args ...any) {}

func direct() {
	k := src()
	sink(k) // line 9
}

func overwritten() {
	k := src()
	k = []byte("clean")
	sink(k)
}

func viaBinary() {
	n := srcInt()
	m := n + 1
	sink(m) // line 20
}

func bounded(max int) {
	n := srcInt()
	if n > max {
		return
	}
	sink(n)
}

func boundedClamp(max int) {
	n := srcInt()
	if n > max {
		n = max
	}
	sink(n)
}

func unbounded() {
	n := srcInt()
	if n > srcInt() { // tainted bound sanitizes nothing
		return
	}
	sink(n) // line 43
}

func loopCarried() {
	n := 0
	for i := 0; i < 3; i++ {
		sink(n) // line 49: tainted on second iteration
		n = srcInt()
	}
}

func rangeValue(xs [][]byte) {
	buf := src()
	for _, b := range buf {
		sink(b) // line 57
	}
}

func compound(max int) {
	n := srcInt()
	if n < 0 || n > max {
		return
	}
	sink(n)
}

func minClamped(max int) {
	n := srcInt()
	sink(min(n, max))
}
`

func TestTaint(t *testing.T) {
	t.Parallel()
	cases := []struct {
		fn    string
		bound bool
		want  []string
	}{
		{"direct", true, []string{"9:src"}},
		{"overwritten", true, nil},
		{"viaBinary", true, []string{"21:srcInt"}},
		{"bounded", true, nil},
		{"boundedClamp", true, nil},
		{"unbounded", true, []string{"45:srcInt"}},
		{"loopCarried", true, []string{"51:srcInt"}},
		{"rangeValue", true, []string{"59:src"}},
		{"compound", true, nil},
		{"minClamped", true, nil},
		// With the sanitizer off, the bound check proves nothing.
		{"bounded", false, []string{"29:srcInt"}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s/bound=%v", tc.fn, tc.bound), func(t *testing.T) {
			t.Parallel()
			got := taintHarness(t, taintSrc, tc.fn, tc.bound)
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("got %v, want %v", got, tc.want)
			}
		})
	}
}

func TestTaintSeed(t *testing.T) {
	t.Parallel()
	const src = `package p

func sink(args ...any) {}

func f(n int) {
	sink(n)
}
`
	body, info, _ := parseFunc(t, src, "f")
	// Find the parameter object.
	var param types.Object
	for id, obj := range info.Defs {
		if id.Name == "n" && obj != nil {
			if _, ok := obj.(*types.Var); ok {
				param = obj
			}
		}
	}
	if param == nil {
		t.Fatal("param n not found")
	}
	var hit bool
	spec := &Spec{
		Info: info,
		Seed: State{param: &Source{Desc: "seeded"}},
		Sink: func(n ast.Node, taintOf func(ast.Expr) *Source) {
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					for _, a := range call.Args {
						if s := taintOf(a); s != nil && s.Desc == "seeded" {
							hit = true
						}
					}
				}
				return true
			})
		},
	}
	Run(Build(body), spec)
	if !hit {
		t.Error("seeded parameter taint did not reach sink")
	}
}
