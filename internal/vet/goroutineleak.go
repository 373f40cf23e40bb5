package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GoroutineLeak flags `go` statements whose goroutine can block
// forever on a channel operation with no cancellation edge in sight.
// The spawned body (a function literal, or a same-package function
// resolved through the go statement) is scanned for channel sends,
// receives, ranges and selects; an operation is a finding unless one
// of these exits is visible:
//
//   - the receive comes from a call result (ctx.Done(), client.Done(),
//     time.After — any call, since the callee owns the channel's
//     lifecycle) or a timer/ticker's .C field;
//   - the channel is close()d somewhere in the same package (receives
//     and ranges unblock on close);
//   - the send targets a channel made with a buffer in the spawning
//     function (the result-channel idiom: the send completes even if
//     the consumer is gone);
//   - the operation sits in a select with a default or with at least
//     two cases (one of them is presumed to be the cancel edge; a
//     single-case select is just a bare operation).
//
// The analysis is name-based within one package: it cannot see
// channels closed by another package, prove that a buffered send has
// capacity, or track channels through function values — those shapes
// need an .sgfsvet-ignore entry or a refactor.
type GoroutineLeak struct{}

// Name implements Analyzer.
func (GoroutineLeak) Name() string { return "goroutine-leak" }

// Run implements Analyzer.
func (GoroutineLeak) Run(pkg *Package) []Diagnostic {
	closed := closedChannels(pkg)

	// Same-package function declarations, to resolve `go m.loop()`.
	bodies := packageBodies(pkg)
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, b := range bodies {
		if b.fn != nil {
			decls[b.fn] = b.decl
		}
	}

	// A body spawned from two sites is reported at both; RunAll keeps
	// one finding per line and message.
	var diags []Diagnostic
	report := func(pos token.Pos, msg string) {
		diags = append(diags, Diagnostic{
			Analyzer: "goroutine-leak",
			Pos:      pkg.Fset.Position(pos),
			Message:  msg,
		})
	}

	for _, b := range bodies {
		if b.fn == nil {
			continue // literals are reached through their declaration
		}
		buffered := bufferedLocals(pkg, b.decl)
		ast.Inspect(b.decl.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			var body *ast.BlockStmt
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				body = lit.Body
			} else if fn := calleeOf(pkg, gs.Call); fn != nil {
				if fdecl, ok := decls[fn]; ok {
					body = fdecl.Body
				}
			}
			if body != nil {
				scanGoroutineBody(pkg, body, closed, buffered, report)
			}
			return true
		})
	}
	return diags
}

// scanGoroutineBody reports unguarded blocking channel operations in
// one spawned body.
func scanGoroutineBody(pkg *Package, body *ast.BlockStmt, closed, buffered map[string]bool,
	report func(token.Pos, string)) {

	exemptRecv := func(ch ast.Expr) bool {
		switch x := ast.Unparen(ch).(type) {
		case *ast.CallExpr:
			// The callee owns the channel: Done(), time.After, etc.
			return true
		case *ast.SelectorExpr:
			if x.Sel.Name == "C" {
				base := namedType(pkg.Info.Types[x.X].Type)
				if base != nil && base.Obj().Pkg() != nil && base.Obj().Pkg().Path() == "time" {
					return true
				}
			}
		}
		return closed[chanID(pkg, ch)]
	}
	exemptSend := func(ch ast.Expr) bool {
		if id, ok := ast.Unparen(ch).(*ast.Ident); ok {
			if v, ok := pkg.Info.Uses[id].(*types.Var); ok && buffered[v.Name()] {
				return true
			}
		}
		return false
	}

	// Selects are judged as a whole; their comm clauses are excluded
	// from the bare-operation scan below.
	inSelect := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false // nested goroutines judged at their own spawn site
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		exempt := false
		cases := 0
		var bare []ast.Node
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if cc.Comm == nil {
				exempt = true // default case: never blocks
				continue
			}
			cases++
			inSelect[cc.Comm] = true
			bare = append(bare, cc.Comm)
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				if exemptSend(comm.Chan) {
					exempt = true
				}
			case *ast.ExprStmt:
				if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW && exemptRecv(u.X) {
					exempt = true
				}
			case *ast.AssignStmt:
				if len(comm.Rhs) == 1 {
					if u, ok := comm.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW && exemptRecv(u.X) {
						exempt = true
					}
				}
			}
		}
		if exempt || cases >= 2 {
			return true
		}
		// A single-case select is a bare operation in disguise.
		for _, comm := range bare {
			delete(inSelect, comm)
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if inSelect[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			if !exemptSend(n.Chan) {
				report(n.Pos(), fmt.Sprintf(
					"goroutine blocks sending to %s with no cancellation edge (no buffer in the spawner, close, or select)",
					chanLabel(pkg, n.Chan)))
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			if !exemptRecv(n.X) {
				report(n.Pos(), fmt.Sprintf(
					"goroutine blocks receiving from %s with no cancellation edge (no close, Done, or deadline in scope)",
					chanLabel(pkg, n.X)))
			}
		case *ast.RangeStmt:
			tv, ok := pkg.Info.Types[n.X]
			if !ok {
				return true
			}
			if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
				return true
			}
			if !exemptRecv(n.X) {
				report(n.X.Pos(), fmt.Sprintf(
					"goroutine ranges over %s, which is never closed in this package",
					chanLabel(pkg, n.X)))
			}
		}
		return true
	})
}

// closedChannels collects the identities of channels passed to the
// close builtin anywhere in the package (including test-adjacent
// helper methods in non-test files).
func closedChannels(pkg *Package) map[string]bool {
	closed := make(map[string]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 || builtinName(pkg, call) != "close" {
				return true
			}
			if cid := chanID(pkg, call.Args[0]); cid != "" {
				closed[cid] = true
			}
			return true
		})
	}
	return closed
}

// bufferedLocals collects names of local variables in fd that hold
// channels made with a buffer, so sends to them from a goroutine
// spawned by fd are recognized as non-blocking result delivery.
func bufferedLocals(pkg *Package, fd *ast.FuncDecl) map[string]bool {
	buffered := make(map[string]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 || builtinName(pkg, call) != "make" {
				continue
			}
			if tv, ok := pkg.Info.Types[call.Args[1]]; ok && tv.Value != nil && tv.Value.String() == "0" {
				continue
			}
			if lhs, ok := as.Lhs[i].(*ast.Ident); ok {
				buffered[lhs.Name] = true
			}
		}
		return true
	})
	return buffered
}

// chanID names a channel expression for close-site matching: plain
// identifiers by name, struct fields by Type.field.
func chanID(pkg *Package, e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			if named := namedType(pkg.Info.Types[x.X].Type); named != nil {
				return named.Obj().Name() + "." + x.Sel.Name
			}
		}
	}
	return ""
}

// chanLabel renders a channel expression for diagnostics.
func chanLabel(pkg *Package, e ast.Expr) string {
	if id := chanID(pkg, e); id != "" {
		return id
	}
	return exprString(e)
}
