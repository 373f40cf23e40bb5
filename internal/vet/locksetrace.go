package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/vet/cfg"
)

// LocksetRace infers which mutex guards which struct field and flags
// accesses that can run with no lock held — the flow-aware successor
// of the syntactic unlocked-field-read check. The analysis has three
// layers:
//
//  1. Per function body, the lock engine (locks.go) tracks the lock
//     effect — keys acquired and released since entry — at every
//     point.
//  2. LockHeld facts propagate through call summaries in both
//     directions. Bottom-up over the call-graph SCC condensation, each
//     function's exit effect (locks it net-acquires or net-releases)
//     is applied at its call sites, so lock/unlock helper methods
//     compose. Top-down, a function's entry lockset is the
//     intersection of the locksets at its static call sites; exported
//     functions, main/init, functions referenced as values and
//     goroutine entry points are roots with an empty entry lockset
//     (callers outside the module hold nothing we can prove).
//  3. Guard inference: a field is considered guarded by the mutex key
//     held at the strict majority of its lock-held accesses, provided
//     that mutex covers at least two accesses including one write.
//     Every access of a guarded field whose effective lockset is
//     empty is reported.
//
// Precision carve-outs: fields of sync/atomic types synchronize
// themselves; accesses through locally-allocated bases (constructor
// idiom) are pre-publication; methods documented as running under the
// caller's lock ("caller must hold mu") or named *Locked are exempt
// from reporting (but still contribute evidence when propagation
// proves their lockset); function literals participate in inference
// but only goroutine-spawned literals are reported — they are the one
// literal class that provably runs outside every caller lockset.
type LocksetRace struct{}

// Name implements Analyzer.
func (LocksetRace) Name() string { return "lockset-race" }

// lsAccess is one recorded struct-field access with the lock effect in
// force at its program point.
type lsAccess struct {
	pkg     *Package
	field   *types.Var
	display string // shortKey'd pkg.Type.field
	write   bool
	pos     token.Pos
	fn      string      // enclosing declaration name, for the message
	owner   *types.Func // nil inside function literals
	effect  *lockEffect
	// noReport: evidence for inference only (non-goroutine literals,
	// caller-holds-lock methods, *Locked methods).
	noReport bool
}

// lsSite is one static call site, for entry-lockset propagation.
type lsSite struct {
	caller *types.Func // nil inside function literals (entry = empty)
	callee *types.Func
	effect *lockEffect
}

type lsAnalysis struct {
	m        *Module
	pkgPaths map[string]bool
	// flow is the lock engine with helper exit effects, so lock/unlock
	// helper methods compose into their callers' locksets.
	flow lockFlow
	// fresh: functions whose every return hands back an object
	// allocated inside them (constructors) — their results are
	// pre-publication at the caller.
	fresh map[*types.Func]bool

	accesses []lsAccess
	sites    []lsSite
	roots    map[*types.Func]bool
}

// Run implements Analyzer.
func (a LocksetRace) Run(m *Module) []Diagnostic {
	ls := &lsAnalysis{
		m:        m,
		pkgPaths: make(map[string]bool, len(m.Pkgs)),
		flow:     lockFlow{helpers: make(map[*types.Func]*lockExit)},
		fresh:    make(map[*types.Func]bool),
		roots:    make(map[*types.Func]bool),
	}
	for _, pkg := range m.Pkgs {
		ls.pkgPaths[pkg.Types.Path()] = true
	}
	ls.computeFresh()

	// Pass 1: bottom-up exit effects so lock/unlock helpers compose.
	m.bottomUp(func(fd *funcDecl) bool {
		cur := ls.flow.exit(m.cfgOf(fd.decl.Body), fd.pkg)
		if old := ls.flow.helpers[fd.fn]; old != nil && sameKeySet(old.acq, cur.acq) && sameKeySet(old.rel, cur.rel) {
			return false
		}
		ls.flow.helpers[fd.fn] = cur
		return true
	})

	// Pass 2: collect accesses, call sites and roots.
	ls.collectRoots()
	for _, fd := range m.funcs {
		ls.collectBody(fd)
	}

	// Pass 3: entry-lockset fixpoint over the call sites.
	entry := ls.solveEntries()

	// Pass 4: guard inference and reporting.
	return ls.report(entry)
}

// collectRoots marks the functions whose entry lockset must be assumed
// empty: exported API, main/init, and functions referenced as values
// (handlers, callbacks, method values) — their call sites are
// invisible to the propagation.
func (ls *lsAnalysis) collectRoots() {
	for fn := range ls.m.decls {
		if ast.IsExported(fn.Name()) || fn.Name() == "main" || fn.Name() == "init" {
			ls.roots[fn] = true
		}
	}
	// A call is visited before the identifier it calls, so one walk
	// tells function references from function calls.
	called := make(map[*ast.Ident]bool)
	for _, pkg := range ls.m.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					switch fun := ast.Unparen(x.Fun).(type) {
					case *ast.Ident:
						called[fun] = true
					case *ast.SelectorExpr:
						called[fun.Sel] = true
					}
				case *ast.Ident:
					if fn, ok := pkg.Info.Uses[x].(*types.Func); ok && !called[x] && ls.m.inModule(fn) {
						ls.roots[fn] = true
					}
				}
				return true
			})
		}
	}
}

// collectBody records field accesses and call sites for one declared
// function and every literal nested in it.
func (ls *lsAnalysis) collectBody(d *funcDecl) {
	pkg, fd, fn := d.pkg, d.decl, d.fn
	exempt := callerHoldsLock(fd) || strings.HasSuffix(fd.Name.Name, "Locked")

	// Literals spawned by go statements run concurrently and are
	// reportable; everything else (defer cleanups, callbacks) only
	// contributes inference evidence.
	goLits := make(map[*ast.FuncLit]bool)
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				goLits[lit] = true
			}
		case *ast.FuncLit:
			lits = append(lits, x)
		}
		return true
	})

	ls.analyzeBody(pkg, fd.Body, fd.Name.Name, fn, exempt)
	for _, lit := range lits {
		ls.analyzeBody(pkg, lit.Body, fd.Name.Name, nil, exempt || !goLits[lit])
	}
}

// analyzeBody solves the lock-effect CFG for one body and replays it,
// recording accesses and call sites under the effect at each point.
func (ls *lsAnalysis) analyzeBody(pkg *Package, body *ast.BlockStmt, name string, fn *types.Func, noReport bool) {
	local := ls.localAllocs(pkg, body)
	ls.flow.replay(ls.m.cfgOf(body), pkg, func(eff *lockEffect, n ast.Node) {
		ls.scanNode(pkg, n, name, fn, eff, local, noReport)
	})
}

// scanNode records every field access and module call site in one CFG
// node under the given lock effect.
func (ls *lsAnalysis) scanNode(pkg *Package, n ast.Node, name string, fn *types.Func, eff *lockEffect, local map[types.Object]bool, noReport bool) {
	addAccess := func(sel *ast.SelectorExpr, write bool) {
		ls.addAccess(pkg, sel, write, name, fn, eff, local, noReport)
	}
	scanReads := func(e ast.Node) {
		if e == nil {
			return
		}
		cfg.Inspect(e, func(m ast.Node) bool {
			if sel, ok := m.(*ast.SelectorExpr); ok {
				addAccess(sel, false)
			}
			return true
		})
	}
	// writeTarget peels index/star wrappers so `b.m[k] = v` and
	// `*b.p = v` count as writes through the field.
	writeTarget := func(e ast.Expr) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				scanReads(x.Index)
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.SelectorExpr:
				addAccess(x, true)
				scanReads(x.X)
				return
			default:
				scanReads(e)
				return
			}
		}
	}

	switch s := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			scanReads(rhs)
		}
		for _, lhs := range s.Lhs {
			writeTarget(lhs)
		}
	case *ast.IncDecStmt:
		writeTarget(s.X)
	default:
		if call, ok := deleteCall(pkg, n); ok {
			writeTarget(call.Args[0])
			for _, arg := range call.Args[1:] {
				scanReads(arg)
			}
		} else if _, isRange := n.(*ast.RangeStmt); !isRange {
			// A range head's operand is already a node of the preceding
			// block; scanning it here would double-count its accesses.
			scanReads(n)
		}
	}

	// Call sites for entry propagation. Calls inside go statements are
	// concurrent: the callee becomes a root instead of inheriting the
	// spawner's lockset.
	cfg.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeOf(pkg, call)
		if callee == nil {
			return true
		}
		if gs, ok := n.(*ast.GoStmt); ok && gs.Call == call {
			ls.roots[callee] = true
			return true
		}
		// A method call on a locally-allocated receiver is the
		// constructor initializing its object pre-publication; it must
		// not drag the callee's entry lockset down to empty.
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if id := rootSelIdent(sel.X); id != nil {
				if obj := pkg.Info.Uses[id]; obj != nil && local[obj] {
					return true
				}
			}
		}
		ls.sites = append(ls.sites, lsSite{caller: fn, callee: callee, effect: eff})
		return true
	})
}

// deleteCall recognizes the delete builtin (a map mutation).
func deleteCall(pkg *Package, n ast.Node) (*ast.CallExpr, bool) {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	return call, ok && len(call.Args) >= 1 && builtinName(pkg, call) == "delete"
}

// addAccess records one selector as a field access if it qualifies.
func (ls *lsAnalysis) addAccess(pkg *Package, sel *ast.SelectorExpr, write bool, name string, fn *types.Func, eff *lockEffect, local map[types.Object]bool, noReport bool) {
	field := fieldVar(pkg, sel)
	if field == nil || field.Pkg() == nil || !ls.pkgPaths[field.Pkg().Path()] {
		return
	}
	if selfSynchronized(field.Type()) {
		return
	}
	named := namedType(pkg.Info.Types[sel.X].Type)
	if named == nil || named.Obj().Pkg() == nil {
		return
	}
	// Pre-publication accesses: a selector chain rooted at a locally-
	// allocated object (constructor idiom) cannot race yet.
	if id := rootSelIdent(sel.X); id != nil {
		if obj := pkg.Info.Uses[id]; obj != nil && local[obj] {
			return
		}
	}
	// A by-value base is a private copy.
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if v, ok := pkg.Info.Uses[id].(*types.Var); ok {
			if _, isPtr := v.Type().Underlying().(*types.Pointer); !isPtr {
				if _, isIface := v.Type().Underlying().(*types.Interface); !isIface {
					return
				}
			}
		}
	}
	ls.accesses = append(ls.accesses, lsAccess{
		pkg:      pkg,
		field:    field,
		display:  shortKey(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Sel.Name),
		write:    write,
		pos:      sel.Sel.Pos(),
		fn:       name,
		owner:    fn,
		effect:   eff,
		noReport: noReport,
	})
}

// computeFresh marks constructors: functions whose every return hands
// back an object allocated inside them (a composite literal, new(T),
// a locally-allocated variable, or another constructor's result).
// Accesses through such results at the caller are pre-publication.
// Freshness chains through wrappers, hence the bottom-up order.
func (ls *lsAnalysis) computeFresh() {
	ls.m.bottomUp(func(site *funcDecl) bool {
		if ls.fresh[site.fn] || site.fn.Type().(*types.Signature).Results().Len() == 0 {
			return false
		}
		local := ls.localAllocs(site.pkg, site.decl.Body)
		returns, allFresh := 0, true
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			if _, isLit := n.(*ast.FuncLit); isLit {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			returns++
			if len(ret.Results) == 0 {
				allFresh = false
				return true
			}
			res := ast.Unparen(ret.Results[0])
			if tv, ok := site.pkg.Info.Types[res]; ok && tv.IsNil() {
				return true // error path: nothing escapes
			}
			if !ls.isFreshExpr(site.pkg, res, local) {
				allFresh = false
			}
			return true
		})
		ls.fresh[site.fn] = returns > 0 && allFresh
		return ls.fresh[site.fn]
	})
}

func (ls *lsAnalysis) isFreshExpr(pkg *Package, e ast.Expr, local map[types.Object]bool) bool {
	if freshAllocExpr(pkg, e) {
		return true
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return local[pkg.Info.Uses[x]]
	case *ast.CallExpr:
		return ls.fresh[calleeOf(pkg, x)]
	}
	return false
}

// localAllocs collects objects bound to values allocated in this body:
// composite literals, &composite, new(T), and constructor results —
// the pre-publication idiom.
func (ls *lsAnalysis) localAllocs(pkg *Package, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	isAlloc := func(e ast.Expr) bool {
		return ls.isFreshExpr(pkg, e, out)
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i := range s.Lhs {
				if isAlloc(s.Rhs[i]) {
					if obj := identObj(pkg, s.Lhs[i]); obj != nil {
						out[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, nm := range s.Names {
				if i < len(s.Values) && isAlloc(s.Values[i]) {
					if obj := pkg.Info.Defs[nm]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
		return true
	})
	return out
}

// rootSelIdent walks a pure selector chain (a.b.c) down to its root
// identifier; anything else (indexing, calls, derefs) yields nil.
func rootSelIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// solveEntries runs the top-down entry-lockset fixpoint: a function's
// entry set is the intersection over its call sites of the caller's
// effective lockset there. Unresolved (⊤) callers do not constrain
// the intersection; roots are pinned to the empty set.
func (ls *lsAnalysis) solveEntries() map[*types.Func]map[string]bool {
	sitesByCallee := make(map[*types.Func][]lsSite)
	for _, s := range ls.sites {
		sitesByCallee[s.callee] = append(sitesByCallee[s.callee], s)
	}

	entry := make(map[*types.Func]map[string]bool)
	resolved := make(map[*types.Func]bool)
	for fn := range ls.roots {
		entry[fn] = map[string]bool{}
		resolved[fn] = true
	}
	callees := make([]*types.Func, 0, len(sitesByCallee))
	for fn := range sitesByCallee {
		callees = append(callees, fn)
	}
	sort.Slice(callees, func(i, j int) bool { return callees[i].Pos() < callees[j].Pos() })

	for pass := 0; pass < len(callees)+8; pass++ {
		changed := false
		for _, fn := range callees {
			if ls.roots[fn] {
				continue
			}
			var next map[string]bool
			first := true
			for _, s := range sitesByCallee[fn] {
				callerEntry := map[string]bool{}
				if s.caller != nil {
					if !resolved[s.caller] {
						continue // optimistic: ⊤ callers don't constrain
					}
					callerEntry = entry[s.caller]
				}
				held := s.effect.held(callerEntry)
				if first {
					next = held
					first = false
					continue
				}
				for k := range next {
					if !held[k] {
						delete(next, k)
					}
				}
			}
			if first {
				continue // every caller still unresolved
			}
			if !resolved[fn] || !sameKeySet(entry[fn], next) {
				entry[fn] = next
				resolved[fn] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return entry
}

func sameKeySet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// report infers the guard per field and flags lock-free accesses.
func (ls *lsAnalysis) report(entry map[*types.Func]map[string]bool) []Diagnostic {
	type evidence struct {
		total  int // accesses with a resolvable lockset
		locked int // of those, accesses with ≥1 lock held
		perKey map[string]int
		writes map[string]int
	}
	ev := make(map[*types.Var]*evidence)
	type resolved struct {
		acc  lsAccess
		held map[string]bool
		top  bool // entry unknown: evidence via acquisitions only
	}
	rs := make([]resolved, 0, len(ls.accesses))
	for _, acc := range ls.accesses {
		var held map[string]bool
		top := false
		if acc.owner == nil {
			held = acc.effect.held(map[string]bool{})
		} else if e, ok := entry[acc.owner]; ok {
			held = acc.effect.held(e)
		} else {
			// Unreachable from any root: only intra-body acquisitions
			// are trustworthy evidence, and nothing is reportable.
			held = acc.effect.held(map[string]bool{})
			top = true
		}
		rs = append(rs, resolved{acc: acc, held: held, top: top})

		e := ev[acc.field]
		if e == nil {
			e = &evidence{perKey: map[string]int{}, writes: map[string]int{}}
			ev[acc.field] = e
		}
		if top && len(held) == 0 {
			continue // no usable evidence
		}
		e.total++
		if len(held) > 0 {
			e.locked++
			for k := range held {
				e.perKey[k]++
				if acc.write {
					e.writes[k]++
				}
			}
		}
	}

	// Guard = the key covering a strict majority of the lock-held
	// accesses, with at least two accesses and one write under it.
	guard := make(map[*types.Var]string)
	guardN := make(map[*types.Var]int)
	for field, e := range ev {
		// Only a mutex from the field's own package can be its guard:
		// a foreign-package lock happening to be held at the accesses
		// (a server mutex around a test-stack append) is coincidence,
		// not a guard relation.
		samePkg := field.Pkg().Path() + "."
		bestKey, bestN := "", 0
		for k, n := range e.perKey {
			if !strings.HasPrefix(k, samePkg) {
				continue
			}
			if n > bestN || (n == bestN && k < bestKey) {
				bestKey, bestN = k, n
			}
		}
		if bestKey == "" || bestN < 2 || e.writes[bestKey] == 0 {
			continue
		}
		if 2*bestN <= e.locked {
			continue
		}
		guard[field] = bestKey
		guardN[field] = bestN
	}

	var diags []Diagnostic
	for _, r := range rs {
		key, ok := guard[r.acc.field]
		if !ok || r.top || r.acc.noReport || len(r.held) > 0 {
			continue
		}
		verb := "read"
		if r.acc.write {
			verb = "written"
		}
		e := ev[r.acc.field]
		diags = append(diags, Diagnostic{
			Analyzer: "lockset-race",
			Pos:      r.acc.pkg.Fset.Position(r.acc.pos),
			Message: fmt.Sprintf("%s is guarded by %s (%d/%d locked accesses) but %s with no lock held in %s",
				r.acc.display, shortKey(key), guardN[r.acc.field], e.locked, verb, r.acc.fn),
		})
	}
	return diags
}

// callerHoldsLock reports whether the method's doc comment declares a
// locking precondition ("caller must hold c.mu" and variants).
func callerHoldsLock(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	return strings.Contains(strings.ToLower(fd.Doc.Text()), "hold")
}

// selfSynchronized reports whether the field's type synchronizes its
// own access: sync primitives and sync/atomic values.
func selfSynchronized(t types.Type) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() {
	case "sync", "sync/atomic":
		return true
	}
	return false
}

// freshAllocExpr reports whether e denotes newly-allocated memory.
func freshAllocExpr(pkg *Package, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		return builtinName(pkg, x) == "new"
	}
	return false
}
