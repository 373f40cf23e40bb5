package vet

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"repro/internal/vet/cfg"
)

// The lock engine: the one model of "which mutexes are held here",
// shared by lock-over-io, lock-order and lockset-race. Per function
// body it runs a CFG must-analysis whose fact is an (acquired,
// released) effect pair, so it composes with an unknown entry lockset:
// held(p) = (entry \ released(p)) ∪ acquired(p). Join intersects
// acquisitions and unions releases — a lock counts as held only if it
// is held on every path, so a branch that unlocks (on one arm or on
// all of them) is seen for what it is. `defer mu.Unlock()` keeps the
// lock held to the end of the region. Function literals are separate
// graphs starting lock-free: they run on their own goroutine or after
// the region ends.

// lockOpOf recognizes mu.Lock/Unlock/RLock/RUnlock on a sync.Mutex or
// sync.RWMutex and returns the mutex selector and whether the
// operation acquires it. RLock is treated like Lock: a writer between
// two readers still deadlocks, and a read lock still guards.
func lockOpOf(pkg *Package, e ast.Expr) (sel *ast.SelectorExpr, acquire, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return nil, false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return nil, false, false
	}
	if !isSyncLocker(pkg.Info.Types[sel.X].Type) {
		return nil, false, false
	}
	return sel, acquire, true
}

// isSyncLocker reports whether t is sync.Mutex or sync.RWMutex
// (possibly behind a pointer).
func isSyncLocker(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// localLockPrefix marks the key of a mutex with no identity outside
// its function body; no import path starts with it.
const localLockPrefix = "~"

// lockRef identifies the mutex behind a lock expression. Struct-field
// and package-level mutexes get a module-wide key,
// "<pkgpath>.<Type>.<field>" or "<pkgpath>.<var>". Locals and
// parameters have no identity across functions: their key is the
// expression's spelling behind localLockPrefix, which only
// lock-over-io (a per-body check) looks at. display is the spelling
// diagnostics use.
func lockRef(pkg *Package, e ast.Expr) (key, display string) {
	display = exprString(e)
	if key = lockKeyOf(pkg, e); key == "" {
		key = localLockPrefix + display
	}
	return key, display
}

func lockKeyOf(pkg *Package, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := pkg.Info.Uses[x].(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
			return ""
		}
		return v.Pkg().Path() + "." + v.Name()
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
				v, ok := pkg.Info.Uses[x.Sel].(*types.Var)
				if !ok || v.Pkg() == nil {
					return ""
				}
				return v.Pkg().Path() + "." + v.Name()
			}
		}
		tv, ok := pkg.Info.Types[x.X]
		if !ok {
			return ""
		}
		named := namedType(tv.Type)
		if named == nil || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name
	}
	return ""
}

// shortKey trims the directory part of a lock key for diagnostics:
// "repro/internal/oncrpc.Client.mu" -> "oncrpc.Client.mu".
func shortKey(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// lockEffect is the dataflow fact: the locks certainly acquired (key →
// the spelling at the acquisition, for messages) and possibly released
// since function entry. Immutable.
type lockEffect struct {
	acq map[string]string
	rel map[string]bool
}

func (e *lockEffect) clone() *lockEffect {
	c := &lockEffect{
		acq: make(map[string]string, len(e.acq)),
		rel: make(map[string]bool, len(e.rel)),
	}
	for k, d := range e.acq {
		c.acq[k] = d
	}
	for k := range e.rel {
		c.rel[k] = true
	}
	return c
}

// held computes the effective lockset, by module-wide key, for a given
// entry set. Function-local mutexes are left out: they cannot guard
// shared state or order against another function's locks.
func (e *lockEffect) held(entry map[string]bool) map[string]bool {
	out := make(map[string]bool, len(entry)+len(e.acq))
	for k := range entry {
		if !e.rel[k] {
			out[k] = true
		}
	}
	for k := range e.acq {
		if !strings.HasPrefix(k, localLockPrefix) {
			out[k] = true
		}
	}
	return out
}

// heldNames lists every mutex acquired in this body and still held,
// function-local ones included, as spelled at the acquisition, sorted.
func (e *lockEffect) heldNames() []string {
	names := make([]string, 0, len(e.acq))
	for _, d := range e.acq {
		names = append(names, d)
	}
	sort.Strings(names)
	return names
}

func (e *lockEffect) with(acquire bool, key, display string) *lockEffect {
	if acquire {
		if _, have := e.acq[key]; have && !e.rel[key] {
			return e
		}
		out := e.clone()
		out.acq[key] = display
		delete(out.rel, key)
		return out
	}
	if _, have := e.acq[key]; !have && e.rel[key] {
		return e
	}
	out := e.clone()
	delete(out.acq, key)
	out.rel[key] = true
	return out
}

func joinLockEffect(a, b cfg.Fact) cfg.Fact {
	fa, fb := a.(*lockEffect), b.(*lockEffect)
	out := &lockEffect{acq: make(map[string]string), rel: make(map[string]bool)}
	for k, d := range fa.acq {
		if _, ok := fb.acq[k]; ok {
			out.acq[k] = d
		}
	}
	for k := range fa.rel {
		out.rel[k] = true
	}
	for k := range fb.rel {
		out.rel[k] = true
	}
	return out
}

func equalLockEffect(a, b cfg.Fact) bool {
	fa, fb := a.(*lockEffect), b.(*lockEffect)
	if len(fa.acq) != len(fb.acq) || len(fa.rel) != len(fb.rel) {
		return false
	}
	for k := range fa.acq {
		if _, ok := fb.acq[k]; !ok {
			return false
		}
	}
	for k := range fa.rel {
		if !fb.rel[k] {
			return false
		}
	}
	return true
}

// lockExit is a function's net lock effect at the end of its body, by
// module-wide key: what a lock()/unlock() helper does to its caller.
type lockExit struct {
	acq, rel map[string]bool
}

// lockFlow configures the engine. helpers, when non-nil, holds the
// exit effects of module functions, applied at their call sites so
// lock/unlock helper methods compose; lockset-race computes and uses
// them. An exit effect is the effect at the end of the body, where a
// deferred unlock has not run yet — fine as lockset-race evidence,
// wrong for an analyzer that reports *held* locks, so lock-over-io and
// lock-order leave helpers nil and see calls as lock-neutral.
type lockFlow struct {
	helpers map[*types.Func]*lockExit
}

func (lf *lockFlow) transfer(pkg *Package) cfg.Transfer {
	return cfg.Transfer{
		Entry: &lockEffect{},
		Node:  func(f cfg.Fact, n ast.Node) cfg.Fact { return lf.node(pkg, f.(*lockEffect), n) },
		Join:  joinLockEffect,
		Equal: equalLockEffect,
	}
}

func (lf *lockFlow) node(pkg *Package, eff *lockEffect, n ast.Node) *lockEffect {
	if _, ok := n.(*ast.DeferStmt); ok {
		// Deferred calls run when the function returns: a deferred
		// unlock keeps the lock held until the region ends.
		return eff
	}
	cfg.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, acquire, ok := lockOpOf(pkg, call); ok {
			key, display := lockRef(pkg, sel.X)
			eff = eff.with(acquire, key, display)
			return true
		}
		// Calls in go statements run concurrently: their effect is not
		// ours.
		if gs, isGo := n.(*ast.GoStmt); isGo && gs.Call == call {
			return true
		}
		if sum := lf.helpers[calleeOf(pkg, call)]; sum != nil {
			for k := range sum.acq {
				eff = eff.with(true, k, shortKey(k))
			}
			for k := range sum.rel {
				eff = eff.with(false, k, "")
			}
		}
		return true
	})
	return eff
}

// replay solves the lock flow over one body's graph and visits every
// reachable node with the effect in force just before it.
func (lf *lockFlow) replay(g *cfg.Graph, pkg *Package, visit func(eff *lockEffect, n ast.Node)) {
	t := lf.transfer(pkg)
	in := cfg.Solve(g, t)
	cfg.Replay(g, t, in, func(f cfg.Fact, n ast.Node) { visit(f.(*lockEffect), n) })
}

// exit solves the lock flow over one body's graph and returns its net
// effect at the end of the body.
func (lf *lockFlow) exit(g *cfg.Graph, pkg *Package) *lockExit {
	out := &lockExit{acq: map[string]bool{}, rel: map[string]bool{}}
	if f, ok := cfg.Solve(g, lf.transfer(pkg))[g.Exit]; ok {
		eff := f.(*lockEffect)
		out.acq = eff.held(nil)
		for k := range eff.rel {
			if !strings.HasPrefix(k, localLockPrefix) {
				out.rel[k] = true
			}
		}
	}
	return out
}
