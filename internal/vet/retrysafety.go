package vet

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// RetrySafety generalizes replay-table-sync's shape check into a flow
// check: code reachable from the reconnect layer's retry/replay paths
// must only re-issue procedures the replay table classifies idempotent.
// A WRITE issued from a session factory, or from a handler that eats
// ErrNonIdempotentReplay and retries, silently double-executes when the
// transport flaps — the exact corruption the replay classification
// exists to prevent, moved one call level out of the table's sight.
//
// Retry-path roots are found three ways:
//
//   - functions passed (anywhere in an argument) to
//     oncrpc.NewReconnectClient — session factories and idempotency
//     callbacks run on every reconnect;
//   - functions that mention oncrpc.ErrNonIdempotentReplay — they
//     observe a refused replay, and what they do next is by
//     definition retry handling;
//   - functions annotated //sgfsvet:retry-path in their doc comment.
//
// Every function reachable from a root through the module call graph
// (interface dispatch and go/defer edges included) is on a retry path;
// inside those bodies, any use of a procedure constant that some
// //sgfsvet:replay-table map classifies as non-idempotent (false) is
// flagged. Constants absent from every table are out of scope —
// replay-table-sync already guarantees the tables are exhaustive for
// the protocols they cover.
//
// Deliberate, argued re-issues (the flush path's identical-bytes
// FILE_SYNC retry) belong in .sgfsvet-ignore with the argument, where
// stale-entry detection keeps the analyzer honest about them.
type RetrySafety struct{}

// Name implements Analyzer.
func (RetrySafety) Name() string { return "retry-safety" }

// retryPathDirective marks a function as retry-path code by hand.
const retryPathDirective = "//sgfsvet:retry-path"

// RunModule implements ModuleAnalyzer.
func (a RetrySafety) RunModule(m *Module) []Diagnostic {
	nonIdem := nonIdempotentConsts(m.Pkgs)
	if len(nonIdem) == 0 {
		return nil
	}
	roots := retryRoots(m)
	if len(roots) == 0 {
		return nil
	}

	// Every function reachable from a root is on a retry path, and
	// says which root put it there.
	var order []*types.Func
	for _, fd := range m.funcs {
		if _, ok := roots[fd.fn]; ok {
			order = append(order, fd.fn)
		}
	}
	var diags []Diagnostic
	for fn, root := range m.reach(order...) {
		why := roots[root]
		if fn != root {
			why += " via " + root.Name()
		}
		site := m.decls[fn]
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			c, ok := site.pkg.Info.Uses[id].(*types.Const)
			if !ok {
				return true
			}
			table, bad := nonIdem[c]
			if !bad {
				return true
			}
			diags = append(diags, Diagnostic{
				Analyzer: a.Name(),
				Pos:      site.pkg.Fset.Position(id.Pos()),
				Message: fmt.Sprintf("non-idempotent %s (classified false in %s) used in %s, which is on a retry/replay path (%s)",
					c.Name(), table, fn.Name(), why),
			})
			return true
		})
	}
	return diags
}

// nonIdempotentConsts collects, from every //sgfsvet:replay-table map
// in the module, the procedure constants classified false, mapped to
// the table variable's name.
func nonIdempotentConsts(pkgs []*Package) map[*types.Const]string {
	out := make(map[*types.Const]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					if _, isTable := replayTarget(gd, vs); !isTable {
						continue
					}
					name := "replay table"
					if len(vs.Names) > 0 {
						name = vs.Names[0].Name
					}
					if len(vs.Values) != 1 {
						continue
					}
					lit, ok := ast.Unparen(vs.Values[0]).(*ast.CompositeLit)
					if !ok {
						continue
					}
					for _, elt := range lit.Elts {
						kv, ok := elt.(*ast.KeyValueExpr)
						if !ok {
							continue
						}
						c := constKeyObj(pkg, kv.Key)
						if c == nil {
							continue
						}
						tv, ok := pkg.Info.Types[kv.Value]
						if !ok || tv.Value == nil || tv.Value.Kind() != constant.Bool {
							continue
						}
						if !constant.BoolVal(tv.Value) {
							out[c] = name
						}
					}
				}
			}
		}
	}
	return out
}

// retryRoots finds the module functions where retry/replay paths
// start, with a human-readable reason per root.
func retryRoots(m *Module) map[*types.Func]string {
	roots := make(map[*types.Func]string)
	add := func(fn *types.Func, why string) {
		if !m.inModule(fn) {
			return
		}
		if _, have := roots[fn]; !have {
			roots[fn] = why
		}
	}
	for _, fd := range m.funcs {
		fn, pkg := fd.fn, fd.pkg
		if hasDirective(fd.decl, retryPathDirective) {
			add(fn, "marked "+retryPathDirective)
		}
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				callee := calleeOf(pkg, x)
				if callee == nil || callee.Name() != "NewReconnectClient" ||
					callee.Pkg() == nil || !strings.HasSuffix(callee.Pkg().Path(), "oncrpc") {
					return true
				}
				// Any function referenced in the arguments runs on
				// reconnect: the session factory, the idempotency
				// callback, stats hooks.
				for _, arg := range x.Args {
					ast.Inspect(arg, func(ref ast.Node) bool {
						if id, ok := ref.(*ast.Ident); ok {
							if rf, ok := pkg.Info.Uses[id].(*types.Func); ok {
								add(rf, "passed to NewReconnectClient")
							}
						}
						if sel, ok := ref.(*ast.SelectorExpr); ok {
							if rf, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
								add(rf, "passed to NewReconnectClient")
							}
						}
						return true
					})
				}
			case *ast.Ident:
				if obj := pkg.Info.Uses[x]; obj != nil && obj.Name() == "ErrNonIdempotentReplay" &&
					obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "oncrpc") {
					add(fn, "handles ErrNonIdempotentReplay")
				}
			}
			return true
		})
	}
	return roots
}
