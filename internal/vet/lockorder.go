package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/vet/cfg"
)

// LockOrder builds a static lock-acquisition graph over the whole
// module and reports cycles as potential deadlocks. A directed edge
// A -> B means some function acquires mutex B while holding mutex A —
// either directly in one body, or by calling (through any chain of
// direct, synchronous calls) a function that acquires B. Mutexes are
// identified by struct field (pkg.Type.field) or package-level
// variable; locals and parameters have no cross-function identity and
// are ignored.
//
// "Holding A" is the lock engine's must-held fact (locks.go), so a
// lock released on every arm of a branch is not held after it.
// Function literals and `go`-spawned calls run outside the spawner's
// critical section, so they contribute acquisition contexts of their
// own instead of inheriting held locks. Calls through function values,
// interfaces without a unique static callee, or reflection are not
// followed; a cycle closed only through such an edge is invisible.
// Re-acquisition of the same key through a call chain is not reported
// — self-deadlocks are indistinguishable from benign
// lock/unlock/relock sequences at this precision.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lock-order" }

// lockEdge records "to is acquired while from is held".
type lockEdge struct {
	from, to string
	pos      token.Position
	detail   string
}

// Run implements Analyzer.
func (LockOrder) Run(m *Module) []Diagnostic {
	// One replay of every body (each literal is its own acquisition
	// context): direct edges, the keys each declared function locks
	// itself, and the module calls made under a lock.
	acquires := make(map[*types.Func]map[string]bool, len(m.funcs))
	for _, fd := range m.funcs {
		acquires[fd.fn] = make(map[string]bool)
	}
	type heldCall struct {
		held   map[string]bool
		callee *types.Func
		pos    token.Position
		fun    string
	}
	var heldCalls []heldCall
	var edges []lockEdge

	var lf lockFlow
	for _, b := range m.bodies {
		pkg := b.pkg
		lf.replay(m.cfgOf(b.body), pkg, func(eff *lockEffect, n ast.Node) {
			held := eff.held(nil)
			forEachSyncCall(n, func(call *ast.CallExpr) {
				if sel, acquire, ok := lockOpOf(pkg, call); ok {
					key := lockKeyOf(pkg, sel.X)
					if !acquire || key == "" {
						return
					}
					if b.fn != nil {
						acquires[b.fn][key] = true
					}
					for hk := range held {
						if hk != key {
							edges = append(edges, lockEdge{
								from:   hk,
								to:     key,
								pos:    pkg.Fset.Position(call.Pos()),
								detail: fmt.Sprintf("%s acquired while %s is held", shortKey(key), shortKey(hk)),
							})
						}
					}
					return
				}
				if callee := calleeOf(pkg, call); len(held) > 0 && m.inModule(callee) {
					heldCalls = append(heldCalls, heldCall{
						held:   held,
						callee: callee,
						pos:    pkg.Fset.Position(call.Pos()),
						fun:    exprString(call.Fun),
					})
				}
			})
		})
	}

	// Close each function's acquisition set over its synchronous
	// callees, then turn every call-under-lock into edges to the
	// callee's full set.
	m.bottomUp(func(fd *funcDecl) bool {
		acq := acquires[fd.fn]
		before := len(acq)
		forEachSyncCall(fd.decl.Body, func(call *ast.CallExpr) {
			for k := range acquires[calleeOf(fd.pkg, call)] {
				acq[k] = true
			}
		})
		return len(acq) != before
	})
	for _, hc := range heldCalls {
		for k := range acquires[hc.callee] {
			for from := range hc.held {
				if from == k {
					continue
				}
				edges = append(edges, lockEdge{
					from:   from,
					to:     k,
					pos:    hc.pos,
					detail: fmt.Sprintf("call to %s acquires %s while %s is held", hc.fun, shortKey(k), shortKey(from)),
				})
			}
		}
	}

	// One representative edge per (from, to), earliest position wins.
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.detail < b.detail
	})
	uniq := edges[:0]
	for _, e := range edges {
		if n := len(uniq); n == 0 || uniq[n-1].from != e.from || uniq[n-1].to != e.to {
			uniq = append(uniq, e)
		}
	}
	return lockCycleDiagnostics(uniq)
}

// forEachSyncCall visits the calls under n (a CFG node or a whole
// body) that run synchronously in n's own frame: not those inside
// function literals, and not the call a go statement spawns (its
// operands still evaluate here).
func forEachSyncCall(n ast.Node, visit func(call *ast.CallExpr)) {
	cfg.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.GoStmt:
			forEachSyncCall(x.Call.Fun, visit)
			for _, arg := range x.Call.Args {
				forEachSyncCall(arg, visit)
			}
			return false
		case *ast.CallExpr:
			visit(x)
		}
		return true
	})
}

// lockCycleDiagnostics finds strongly connected components of the lock
// graph — edges holds one edge per (from, to), sorted — and emits one
// diagnostic per cyclic component.
func lockCycleDiagnostics(edges []lockEdge) []Diagnostic {
	adj := make(map[string][]string)
	var nodes []string
	for _, e := range edges {
		if _, seen := adj[e.from]; !seen {
			nodes = append(nodes, e.from)
		}
		adj[e.from] = append(adj[e.from], e.to)
	}

	var diags []Diagnostic
	for _, scc := range tarjan(nodes, func(n string) []string { return adj[n] }) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, n := range scc {
			inSCC[n] = true
		}
		var cycleEdges []lockEdge
		for _, e := range edges {
			if inSCC[e.from] && inSCC[e.to] {
				cycleEdges = append(cycleEdges, e)
			}
		}
		pos := cycleEdges[0].pos
		var parts []string
		for _, e := range cycleEdges {
			if posLess(e.pos, pos) {
				pos = e.pos
			}
			parts = append(parts, fmt.Sprintf("%s [%s:%d]", e.detail, filepath.Base(e.pos.Filename), e.pos.Line))
		}
		short := make([]string, len(scc))
		for i, n := range scc {
			short[i] = shortKey(n)
		}
		diags = append(diags, Diagnostic{
			Analyzer: "lock-order",
			Pos:      pos,
			Message: fmt.Sprintf("potential deadlock: lock-order cycle among %s: %s",
				strings.Join(short, ", "), strings.Join(parts, "; ")),
		})
	}
	return diags
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}
