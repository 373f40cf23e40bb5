package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocHotPath is the sixth-generation performance analyzer: a
// conservative escape approximation over the module call graph that
// classifies every allocation site reachable from a declared hot path
// as stack-likely or heap-escaping, and gates the heap ones behind a
// checked-in budget.
//
// Hot paths are declared with //sgfsvet:hot-path on a function's doc
// comment (the RPC call path, record seal/open, XDR codecs, the cache
// flush and readahead workers, the replica write fan-out). Every
// function reachable from a root through the call graph — interface
// dispatch included — is hot.
//
// Inside hot functions the analyzer finds allocation sites of two
// classes:
//
//   - always-heap: map/chan/dynamic-size make, fmt/errors formatting,
//     interface boxing of non-pointer-shaped values, variadic packing,
//     go statements needing a closure, defers inside loops;
//   - escape-dependent: const-size make, new, &composite, slice/map
//     literals, string<->[]byte conversions, address-taken locals,
//     captured-closure literals, growing appends. These become heap
//     only when the value observably escapes: returned, stored through
//     a pointer / into a field / package variable, sent on a channel,
//     captured by a closure, handed to a goroutine, or passed to a
//     call whose escape summary (computed bottom-up over the SCC
//     condensation) says the argument escapes.
//
// Values pulled from a sync.Pool are amortized by construction: pool
// New closures hang off package variables, outside every function
// body, so their allocations are never sites.
//
// Findings (all three require a hot function):
//
//   - pool-bypass: a heap site inside a loop, in a package that
//     maintains sync.Pools, not covered by the make+copy grow idiom;
//   - defer-in-loop: a defer inside a loop allocates a defer record
//     per iteration;
//   - fmt-in-hot-loop: fmt/errors formatting inside a loop. Blocks
//     that immediately bail out (the enclosing block ends in return,
//     or the call feeds a return) are error paths, not steady state,
//     and are exempt from the loop rules.
//
// The census of heap sites per root feeds the CI alloc budget: see
// AllocCensus and CompareAllocBudget.
type AllocHotPath struct{}

// Name implements Analyzer.
func (AllocHotPath) Name() string { return "alloc-hotpath" }

// hotPathDirective marks a function as an allocation hot-path root.
const hotPathDirective = "//sgfsvet:hot-path"

// allocSitePrefix tags site sources in the taint engine; it extends
// the summary-marker prefix so markerOf never confuses the two.
const allocSitePrefix = markerPrefix + "site:"

// RunModule implements ModuleAnalyzer.
func (a AllocHotPath) RunModule(m *Module) []Diagnostic {
	an := analyzeAllocs(m)
	if an == nil {
		return nil
	}
	return an.diags
}

// Alloc site kinds, as they appear in census reports and budget keys.
const (
	kindMake       = "make"
	kindNew        = "new"
	kindComposite  = "composite"
	kindStringConv = "string-conv"
	kindMovedLocal = "moved-local"
	kindClosure    = "closure"
	kindAppend     = "append"
	kindFormat     = "format"
	kindIfaceBox   = "iface-box"
	kindVariadic   = "variadic"
	kindDeferLoop  = "defer-loop"
)

// allocSite is one potential allocation in a hot function.
type allocSite struct {
	id     int
	node   ast.Node
	pkg    *Package
	fn     *types.Func // enclosing declared function
	kind   string
	detail string
	pos    token.Pos

	always     bool // allocates regardless of escape
	heap       bool // always-heap, or escape observed
	escaped    string
	loop       bool // lexically inside a loop
	bail       bool // error path: block ends in return / feeds a return
	growExempt bool // make+copy grow idiom
	noPool     bool // not a poolable buffer (e.g. a channel)
	roots      []string
}

// allocAnalysis is the shared result of one module pass, feeding both
// the analyzer findings and the census.
type allocAnalysis struct {
	m     *Module
	esc   *summarySet
	hot   map[*types.Func][]string // fn -> sorted root names reaching it
	sites []*allocSite
	diags []Diagnostic
}

// analyzeAllocs runs the full pipeline; nil when no roots are declared.
func analyzeAllocs(m *Module) *allocAnalysis {
	roots := hotPathRoots(m)
	if len(roots) == 0 {
		return nil
	}
	an := &allocAnalysis{
		m:   m,
		esc: computeEscapeSummaries(m),
		hot: make(map[*types.Func][]string),
	}

	// Top-down: every function reachable from a root is hot, and
	// remembers which roots reach it for census attribution.
	names := make([]string, 0, len(roots))
	byName := make(map[string]*types.Func, len(roots))
	for fn, name := range roots {
		names = append(names, name)
		byName[name] = fn
	}
	sort.Strings(names)
	for _, name := range names {
		for fn := range m.reach(byName[name]) {
			an.hot[fn] = append(an.hot[fn], name)
		}
	}

	for _, fd := range m.funcs { // declaration order: deterministic
		if an.hot[fd.fn] != nil {
			an.classifyFn(fd.pkg, fd.decl, fd.fn)
		}
	}
	an.report(poolPackages(m.Pkgs))
	return an
}

// hotPathRoots collects //sgfsvet:hot-path annotated declarations.
func hotPathRoots(m *Module) map[*types.Func]string {
	roots := make(map[*types.Func]string)
	for _, fd := range m.funcs {
		if hasDirective(fd.decl, hotPathDirective) {
			roots[fd.fn] = fd.pkg.Types.Name() + "." + shortFuncName(fd.fn)
		}
	}
	return roots
}

// hasDirective reports whether a declaration's doc comment carries the
// given //sgfsvet: directive line.
func hasDirective(decl *ast.FuncDecl, directive string) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, directive) {
			return true
		}
	}
	return false
}

// poolPackages reports which packages declare a package-level
// sync.Pool (directly or inside a struct field is irrelevant: the
// discipline the pool-bypass rule enforces is "this package already
// amortizes buffers").
func poolPackages(pkgs []*Package) map[*Package]bool {
	out := make(map[*Package]bool)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			v, ok := scope.Lookup(name).(*types.Var)
			if !ok {
				continue
			}
			if typeMentionsPool(v.Type(), make(map[*types.Named]bool)) {
				out[pkg] = true
				break
			}
		}
	}
	return out
}

func typeMentionsPool(t types.Type, seen map[*types.Named]bool) bool {
	switch u := t.(type) {
	case *types.Named:
		if seen[u] {
			return false
		}
		seen[u] = true
		if obj := u.Obj(); obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
			return true
		}
		return typeMentionsPool(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeMentionsPool(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Pointer:
		return typeMentionsPool(u.Elem(), seen)
	case *types.Array:
		return typeMentionsPool(u.Elem(), seen)
	}
	return false
}

// shortFuncName renders fn as F or (T).M / (*T).M.
func shortFuncName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if n, isNamed := t.(*types.Named); isNamed {
			return "(" + ptr + n.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Name()
}
