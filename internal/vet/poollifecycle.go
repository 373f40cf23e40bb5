package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/vet/cfg"
)

// PoolLifecycle is a CFG must-analysis over sync.Pool Get/Put
// obligations. A pooled object is live from its Get (direct, or via a
// module helper whose summary returns a pooled value) until its Put
// (direct, or via a helper whose summary puts a parameter, or a
// deferred Put). Within that window the analysis flags the lifecycle
// violations that corrupt a pool:
//
//   - use-after-put: any read of the object after it went back to the
//     pool — another goroutine may already have Got it.
//   - double-put: the same object returned to the pool twice, so two
//     future Gets share one buffer.
//   - escape-then-put: the object was stored into a longer-lived
//     structure, sent on a channel, or handed to a goroutine, and then
//     recycled — the escaped reference now aliases pool-owned memory.
//   - deferred-Put escape: a deferred Put recycles an object the
//     function also returns to its caller.
//
// Helper summaries are computed bottom-up over the call-graph SCCs so
// the recGet/recPut pair in oncrpc/pool.go and similar wrappers
// compose: recGet() carries the obligation to its caller, recPut(p)
// counts as the Put. Put-shaped helpers are recognized by behavior
// (their body puts the parameter), never by name, so ordinary caches
// with Put methods do not trigger events.
type PoolLifecycle struct{}

// Name implements Analyzer.
func (PoolLifecycle) Name() string { return "pool-lifecycle" }

// RunModule implements ModuleAnalyzer: the obligation engine under the
// pool policy.
func (PoolLifecycle) RunModule(m *Module) []Diagnostic {
	return runObligations(m, poolPolicy{})
}

// poolPolicy is pool-lifecycle's obPolicy: acquisitions are pool Gets
// and helpers that return one; a Put does not remove the obligation
// but marks it (poolState), as do escapes and goroutine hand-offs, and
// the report flags the combinations that corrupt a pool.
type poolPolicy struct{}

func (poolPolicy) followsWrappers() bool { return false }

// unwrap sees through the *pool.Get().(*[]byte) idiom.
func (poolPolicy) unwrap(e ast.Expr) *ast.CallExpr { return unwrapCall(e, true) }

func (poolPolicy) trackable(v *types.Var, recv bool) bool {
	return !recv && trackablePoolParam(v.Type())
}

func (poolPolicy) edge(_ *obRun, st obFact, _ cfg.Edge) obFact { return st }

// stored: the object outlives this frame, so a later Put recycles
// shared memory.
func (p poolPolicy) stored(r *obRun, st obFact, ob *obligation, at ast.Expr) obFact {
	return p.markEscape(st, ob, "stored", at.Pos())
}

// poolState is what has happened to a pooled object on the paths into
// a program point.
type poolState struct {
	// mayPut: a Put of the object happened on some path to here.
	mayPut bool
	putPos token.Pos
	// deferPut: a deferred Put is registered; it runs at function exit.
	deferPut bool
	// mayEsc: the object escaped (stored / sent / appended) on some
	// path; a later Put recycles memory something else still holds.
	mayEsc  bool
	escPos  token.Pos
	escKind string
	// async: the object was handed to a goroutine on some path.
	async bool
}

func (s poolState) join(o poolState) poolState {
	if s.putPos == token.NoPos {
		s.putPos = o.putPos
	}
	if s.escPos == token.NoPos {
		s.escPos, s.escKind = o.escPos, o.escKind
	}
	s.mayPut = s.mayPut || o.mayPut
	s.deferPut = s.deferPut || o.deferPut
	s.mayEsc = s.mayEsc || o.mayEsc
	s.async = s.async || o.async
	return s
}

// same compares the flags; positions only feed messages.
func (s poolState) same(o poolState) bool {
	return s.mayPut == o.mayPut && s.deferPut == o.deferPut && s.mayEsc == o.mayEsc && s.async == o.async
}

// report replays the solved states to emit diagnostics.
func (p poolPolicy) report(r *obRun, b funcBody, g *cfg.Graph, t cfg.Transfer, in map[*cfg.Block]cfg.Fact) []Diagnostic {
	var diags []Diagnostic
	emit := func(pos token.Pos, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "pool-lifecycle",
			Pos:      b.pkg.Fset.Position(pos),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	line := func(pos token.Pos) int { return b.pkg.Fset.Position(pos).Line }

	cfg.Replay(g, t, in, func(f cfg.Fact, n ast.Node) {
		st := f.(obFact)
		if len(st) == 0 {
			return
		}
		switch s := n.(type) {
		case *ast.DeferStmt, *ast.GoStmt, *ast.RangeStmt:
			return // interpreted by the transfer, not direct execution
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if ob := r.aliasOb(st, res); ob != nil && st[ob].pool.deferPut {
					emit(s.Pos(), "pooled object in %s is returned to the caller but a deferred Put recycles it",
						r.fnName)
				}
			}
		case *ast.SendStmt:
			if ob := r.aliasOb(st, s.Value); ob != nil && st[ob].pool.deferPut {
				emit(s.Pos(), "pooled object in %s is sent on a channel but a deferred Put recycles it",
					r.fnName)
			}
		case *ast.AssignStmt:
			if s.Tok == token.ASSIGN && len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					if identObj(r.pkg, s.Lhs[i]) != nil {
						continue // rebinding, not a store
					}
					if ob := r.aliasOb(st, s.Rhs[i]); ob != nil && st[ob].pool.deferPut {
						emit(s.Pos(), "pooled object in %s is stored but a deferred Put recycles it",
							r.fnName)
					}
				}
			}
		}

		// A whole-variable assignment target is a rebind, not a read of
		// the pooled object; exclude those idents from the use scan.
		skipIdents := make(map[*ast.Ident]bool)
		if as, ok := n.(*ast.AssignStmt); ok {
			for _, l := range as.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok {
					skipIdents[id] = true
				}
			}
		}

		// Put events against the state in force before them.
		putIdents := skipIdents
		cfg.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range p.putArgs(r, call) {
				ast.Inspect(arg, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok {
						putIdents[id] = true
					}
					return true
				})
				ob := r.aliasOb(st, arg)
				if ob == nil {
					continue
				}
				info := st[ob].pool
				switch {
				case info.mayPut:
					emit(call.Pos(), "pooled object in %s is returned to the pool twice (previous Put at line %d)",
						r.fnName, line(info.putPos))
				case info.deferPut:
					emit(call.Pos(), "pooled object in %s is returned to the pool twice (a deferred Put also recycles it)",
						r.fnName)
				case info.async:
					emit(call.Pos(), "pooled object in %s is handed to a goroutine but is returned to the pool",
						r.fnName)
				case info.mayEsc:
					emit(call.Pos(), "pooled object in %s escapes (%s at line %d) but is returned to the pool",
						r.fnName, info.escKind, line(info.escPos))
				}
			}
			return true
		})

		// Any other read of an object that may already be pooled.
		cfg.Inspect(n, func(m ast.Node) bool {
			id, ok := m.(*ast.Ident)
			if !ok || putIdents[id] {
				return true
			}
			obj := r.pkg.Info.Uses[id]
			if obj == nil {
				return true
			}
			for _, info := range st {
				if info.pool.mayPut && info.aliases[obj] {
					emit(id.Pos(), "pooled object in %s is used after being returned to the pool (Put at line %d)",
						r.fnName, line(info.pool.putPos))
				}
			}
			return true
		})
	})
	return diags
}

func (p poolPolicy) node(r *obRun, st obFact, n ast.Node) obFact {
	switch s := n.(type) {
	case *ast.DeferStmt:
		return p.deferred(r, st, s)
	case *ast.GoStmt:
		return p.goStmt(r, st, s)
	case *ast.RangeStmt:
		// s.X is a node of the preceding block; only the iteration
		// variables need handling (they are rebound).
		st = r.killObj(st, identObj(r.pkg, s.Key))
		return r.killObj(st, identObj(r.pkg, s.Value))
	}
	st = p.events(r, st, n)
	switch s := n.(type) {
	case *ast.AssignStmt:
		return r.assign(st, s)
	case *ast.DeclStmt:
		return r.valueSpecs(st, s)
	case *ast.ReturnStmt:
		return r.ret(st, s)
	case *ast.SendStmt:
		if ob := r.aliasOb(st, s.Value); ob != nil {
			st = p.markEscape(st, ob, "sent", s.Pos())
		}
	}
	return st
}

// events applies Put and process-ending effects from every call in the
// node (excluding function-literal interiors, which execute later or
// elsewhere).
func (p poolPolicy) events(r *obRun, st obFact, n ast.Node) obFact {
	cfg.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if noReturnCall(r.pkg, call) {
			st = obFact{}
			return true
		}
		for _, arg := range p.putArgs(r, call) {
			st = p.put(r, st, arg, call)
		}
		return true
	})
	return st
}

// put applies one Put of arg at call.
func (poolPolicy) put(r *obRun, st obFact, arg ast.Expr, call *ast.CallExpr) obFact {
	if ob := r.aliasOb(st, arg); ob != nil {
		if r.sum != nil && ob.param >= 0 {
			r.sum.ParamDone[ob.param] = true
		}
		ni := st[ob].clone()
		ni.pool.mayPut = true
		ni.pool.putPos = call.Pos()
		return st.with(ob, ni)
	}
	// An untracked value going into a pool starts an obligation in the
	// put state, so later uses of the variable are still caught.
	obj := identObj(r.pkg, peelAddr(arg))
	if obj == nil {
		return st
	}
	return st.with(r.a.siteOb(call, pooledObject), &obInfo{
		aliases: map[types.Object]bool{obj: true},
		pool:    poolState{mayPut: true, putPos: call.Pos()},
	})
}

// putArgs returns the operands a call returns to a pool: the argument
// of (*sync.Pool).Put, and arguments whose position a module callee's
// summary marks as put.
func (poolPolicy) putArgs(r *obRun, call *ast.CallExpr) []ast.Expr {
	fn, path := stdCallee(r.pkg, call)
	if fn != nil && path == "sync" && fn.Name() == "Put" {
		if named := recvNamed(r.pkg, call); named != nil && named.Obj().Name() == "Pool" {
			if len(call.Args) == 1 {
				return call.Args[:1]
			}
		}
		return nil
	}
	if fn == nil {
		return nil
	}
	sum := r.a.sums[fn]
	if sum == nil {
		return nil
	}
	var out []ast.Expr
	for i, arg := range call.Args {
		if j := sum.argIndex(i); j >= 0 && sum.ParamDone[j] {
			out = append(out, arg)
		}
	}
	return out
}

// pooledObject is the description every pool obligation carries.
const pooledObject = "pooled object"

// acquire reports whether a call produces a pooled object the caller
// must eventually Put: (*sync.Pool).Get, or a module helper whose
// summary returns one.
func (poolPolicy) acquire(r *obRun, _ obFact, call *ast.CallExpr) (string, bool) {
	fn, path := stdCallee(r.pkg, call)
	if fn == nil {
		return "", false
	}
	if path == "sync" && fn.Name() == "Get" {
		named := recvNamed(r.pkg, call)
		return pooledObject, named != nil && named.Obj().Name() == "Pool"
	}
	sum := r.a.sums[fn]
	return pooledObject, sum != nil && sum.Returns != ""
}

// deferred registers deferred Puts: the object stays usable until the
// function exits, but escapes past the deferral are violations.
func (p poolPolicy) deferred(r *obRun, st obFact, d *ast.DeferStmt) obFact {
	mark := func(arg ast.Expr) {
		ob := r.aliasOb(st, arg)
		if ob == nil {
			return
		}
		if r.sum != nil && ob.param >= 0 {
			r.sum.ParamDone[ob.param] = true
		}
		ni := st[ob].clone()
		ni.pool.deferPut = true
		st = st.with(ob, ni)
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				for _, arg := range p.putArgs(r, call) {
					mark(arg)
				}
			}
			return true
		})
		return st
	}
	for _, arg := range p.putArgs(r, d.Call) {
		mark(arg)
	}
	return st
}

// goStmt marks objects referenced by a spawned goroutine (directly or
// via closure capture): a Put after the spawn races the goroutine.
func (poolPolicy) goStmt(r *obRun, st obFact, g *ast.GoStmt) obFact {
	ast.Inspect(g.Call, func(m ast.Node) bool {
		id, ok := m.(*ast.Ident)
		if !ok {
			return true
		}
		obj := r.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		for ob, info := range st {
			if info.aliases[obj] && !info.pool.async {
				ni := info.clone()
				ni.pool.async = true
				st = st.with(ob, ni)
			}
		}
		return true
	})
	return st
}

func (poolPolicy) markEscape(st obFact, ob *obligation, kind string, pos token.Pos) obFact {
	if st[ob].pool.mayEsc {
		return st
	}
	ni := st[ob].clone()
	ni.pool.mayEsc, ni.pool.escKind, ni.pool.escPos = true, kind, pos
	return st.with(ob, ni)
}

// peelAddr strips a leading & so Put(&p) resolves to p.
func peelAddr(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// trackablePoolParam reports whether a parameter's type can carry a
// pooled object worth summarizing: byte slices (record buffers) and
// pointers (pooled scratch structs). Seeding value types creates
// phantom obligations with no aliasing behavior worth tracking.
func trackablePoolParam(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		b, ok := u.Elem().Underlying().(*types.Basic)
		return ok && b.Kind() == types.Byte
	case *types.Pointer:
		return true
	}
	return false
}
