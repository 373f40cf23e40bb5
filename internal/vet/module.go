package vet

import (
	"go/ast"
	"go/types"
	"slices"

	"repro/internal/vet/cfg"
)

// Module is the view of the loaded packages every module analyzer
// shares: built once per run by RunAllTimed, read-only afterwards.
// It answers the questions analyzers used to answer privately —
// where is this function declared, what can it cause to run, which
// bodies exist, what is this body's control-flow graph — so no
// analyzer indexes, walks or condenses the module on its own.
//
// Because all packages of a run share one Loader, a function object
// obtained from a call site in one package is pointer-identical to the
// object recorded at its declaration in another.
type Module struct {
	Pkgs []*Package

	// funcs lists every declared function with a body in (package,
	// file, declaration) order; decls indexes them by object.
	funcs []*funcDecl
	decls map[*types.Func]*funcDecl

	// bodies lists every analyzable body — each declaration followed
	// by the function literals nested in it — in the same order.
	bodies []funcBody

	// succs approximates "running F can cause G to run" for module
	// functions. Edges come from static calls, from interface method
	// calls resolved against the method sets of every named module
	// type that satisfies the interface, and from calls inside
	// `go`/`defer` statements and function literals, which are
	// attributed to the enclosing declaration — the graph answers
	// reachability, not synchronous call order.
	//
	// There are deliberately no edges for bare function references
	// (handler registration, callbacks stored in maps): those would
	// over-connect the graph and drown flow-sensitive analyzers in
	// spurious paths. Analyzers that care about one indirect call
	// site (retry-safety and the ReconnectClient session factory)
	// resolve that reference themselves.
	succs map[*types.Func][]*types.Func

	// sccs is the condensation of succs. Edges run caller → callee, so
	// components complete callee-first — the order bottomUp needs.
	sccs [][]*types.Func

	cfgs map[*ast.BlockStmt]*cfg.Graph
}

// funcDecl is one declared function with a body.
type funcDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
	fn   *types.Func
}

// funcBody is one analyzable function body: a declared function or a
// function literal (reported under the enclosing declaration's name).
// Literals get their own CFG — no engine inlines them.
type funcBody struct {
	pkg  *Package
	decl *ast.FuncDecl // enclosing declaration, for diagnostics
	fn   *types.Func   // nil for function literals
	body *ast.BlockStmt
}

// NewModule indexes pkgs, builds the call graph and its condensation,
// and builds the CFG of every body. Duplicate packages (the same
// directory named by two patterns) are indexed once.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		decls: make(map[*types.Func]*funcDecl),
		succs: make(map[*types.Func][]*types.Func),
		cfgs:  make(map[*ast.BlockStmt]*cfg.Graph),
	}
	seen := make(map[*Package]bool, len(pkgs))
	for _, pkg := range pkgs {
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		m.Pkgs = append(m.Pkgs, pkg)
		for _, b := range packageBodies(pkg) {
			m.bodies = append(m.bodies, b)
			m.cfgs[b.body] = cfg.Build(b.body)
			if b.fn != nil {
				fd := &funcDecl{pkg: pkg, decl: b.decl, fn: b.fn}
				m.funcs = append(m.funcs, fd)
				m.decls[b.fn] = fd
			}
		}
	}
	m.buildCallGraph()
	return m
}

// packageBodies lists every function body in pkg — each declaration
// followed by the function literals nested in it — in (file,
// declaration) order.
func packageBodies(pkg *Package) []funcBody {
	var out []funcBody
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
			if fn == nil {
				continue
			}
			out = append(out, funcBody{pkg: pkg, decl: decl, fn: fn, body: decl.Body})
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					out = append(out, funcBody{pkg: pkg, decl: decl, body: lit.Body})
				}
				return true
			})
		}
	}
	return out
}

// cfgOf returns the control-flow graph of a declaration or literal
// body. Graphs are immutable once built, so analyses share them.
func (m *Module) cfgOf(body *ast.BlockStmt) *cfg.Graph { return m.cfgs[body] }

// inModule reports whether fn is declared (with a body) in the module.
func (m *Module) inModule(fn *types.Func) bool {
	_, ok := m.decls[fn]
	return ok
}

func (m *Module) buildCallGraph() {
	// Named module types, for resolving interface dispatch to the
	// concrete methods that might run.
	var named []*types.Named
	for _, pkg := range m.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				named = append(named, n)
			}
		}
	}
	implCache := make(map[*types.Func][]*types.Func)

	for _, fd := range m.funcs {
		edges := make(map[*types.Func]bool)
		addEdge := func(to *types.Func) {
			if !m.inModule(to) || edges[to] {
				return
			}
			edges[to] = true
			m.succs[fd.fn] = append(m.succs[fd.fn], to)
		}
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(fd.pkg, call)
			if callee == nil {
				return true
			}
			if !isAbstract(callee) {
				addEdge(callee)
				return true
			}
			if _, cached := implCache[callee]; !cached {
				implCache[callee] = implementers(named, callee)
			}
			for _, impl := range implCache[callee] {
				addEdge(impl)
			}
			return true
		})
	}

	nodes := make([]*types.Func, len(m.funcs))
	for i, fd := range m.funcs {
		nodes[i] = fd.fn
	}
	m.sccs = tarjan(nodes, func(fn *types.Func) []*types.Func { return m.succs[fn] })
}

// bottomUp drives a summary fixpoint callee-first over the call
// graph's condensation. step recomputes one function's summary against
// the current state of every other summary and reports whether it
// changed; the members of a cyclic component are re-run until none
// does. A function outside every cycle depends only on summaries that
// are already final, so one step settles it.
func (m *Module) bottomUp(step func(fd *funcDecl) bool) {
	for _, scc := range m.sccs {
		if len(scc) == 1 && !slices.Contains(m.succs[scc[0]], scc[0]) {
			step(m.decls[scc[0]])
			continue
		}
		// Safety valve only: summary lattices are monotone and finite,
		// so the loop converges well before the bound.
		for pass := 0; pass < len(scc)*4+8; pass++ {
			changed := false
			for _, fn := range scc {
				if step(m.decls[fn]) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

// reach searches the call graph breadth-first from roots, taken in the
// given order, and maps every function reached to the root it was
// first reached from (a root maps to itself).
func (m *Module) reach(roots ...*types.Func) map[*types.Func]*types.Func {
	from := make(map[*types.Func]*types.Func, len(roots))
	for _, r := range roots {
		from[r] = r
	}
	queue := append([]*types.Func(nil), roots...)
	for ; len(queue) > 0; queue = queue[1:] {
		v := queue[0]
		for _, w := range m.succs[v] {
			if _, seen := from[w]; !seen {
				from[w] = from[v]
				queue = append(queue, w)
			}
		}
	}
	return from
}

// tarjan returns the strongly connected components of the graph over
// nodes. Components are appended as they complete, which with
// caller → callee edges yields them callee-first (reverse topological
// order of the condensation).
func tarjan[T comparable](nodes []T, succs func(T) []T) [][]T {
	index := make(map[T]int, len(nodes))
	low := make(map[T]int, len(nodes))
	onStack := make(map[T]bool)
	var stack []T
	var sccs [][]T

	var strong func(v T)
	strong = func(v T) {
		index[v] = len(index)
		low[v] = index[v]
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range succs(v) {
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []T
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strong(v)
		}
	}
	return sccs
}

// calleeOf resolves a call expression to the function or method object
// it statically invokes. Calls through function values, builtins and
// conversions resolve to nil.
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pkg.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pkg.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// stdCallee resolves a call to a function or method object and returns
// it with its defining package path ("" for builtins, locals and
// indirect calls).
func stdCallee(pkg *Package, call *ast.CallExpr) (*types.Func, string) {
	fn := calleeOf(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, ""
	}
	return fn, fn.Pkg().Path()
}

// methodRecv returns the receiver expression of a method call — x in
// x.M(...) — and nil for any other call.
func methodRecv(pkg *Package, call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			return sel.X
		}
	}
	return nil
}

// recvNamed returns the named type of a method call's receiver
// expression, nil for non-method calls.
func recvNamed(pkg *Package, call *ast.CallExpr) *types.Named {
	if x := methodRecv(pkg, call); x != nil {
		return namedType(pkg.Info.Types[x].Type)
	}
	return nil
}

// isAbstract reports whether fn is an interface method (no body
// anywhere — the call dispatches dynamically).
func isAbstract(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// implementers resolves an interface method to the concrete module
// methods that can satisfy it: every named non-interface type whose
// method set (value or pointer) implements the receiver interface
// contributes its method of the same name.
func implementers(named []*types.Named, absm *types.Func) []*types.Func {
	iface, ok := absm.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, n := range named {
		if types.IsInterface(n.Underlying()) {
			continue
		}
		t := types.Type(n)
		if !types.Implements(t, iface) {
			t = types.NewPointer(n)
			if !types.Implements(t, iface) {
				continue
			}
		}
		obj, _, _ := types.LookupFieldOrMethod(t, true, absm.Pkg(), absm.Name())
		if m, ok := obj.(*types.Func); ok {
			out = append(out, m)
		}
	}
	return out
}
