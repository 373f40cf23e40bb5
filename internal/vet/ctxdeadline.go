package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// CtxDeadline checks that upstream RPC entry points are only reachable
// through deadline-bearing contexts. A sink is any method named Call
// or CallCred whose first parameter is a context.Context — the shape
// of every RPC issue point in this module (oncrpc.Client,
// oncrpc.ReconnectClient, and the proxy upcall wrappers around them).
//
// Context expressions are classified flow-insensitively per variable:
// context.WithTimeout/WithDeadline results are deadline-bearing,
// WithCancel/WithValue inherit from their parent, Background/TODO can
// never gain a deadline, and a context parameter defers the obligation
// to the caller. A variable assigned a bearing value anywhere counts
// as bearing everywhere — conditional `if r != nil { ctx, cancel =
// context.WithTimeout(...) }` guards therefore pass, which is the
// deliberate lenient bias. Obligations propagate interprocedurally:
// when a function forwards its context parameter into a sink (or into
// another obligated function) through a direct call, each of its
// callers must supply a deadline-bearing or parameter context;
// passing context.Background()/TODO() there is a finding. Contexts of
// unknown provenance (struct fields, function results) are trusted
// silently, as are calls through function values and interfaces with
// no unique static callee.
type CtxDeadline struct {
	// Packages restricts reporting to call sites in these import
	// paths; empty reports everywhere. The propagation itself always
	// runs over the whole module.
	Packages []string
}

// Name implements Analyzer.
func (CtxDeadline) Name() string { return "ctx-deadline" }

const (
	ctxUnbounded = iota // Background/TODO: can never gain a deadline
	ctxUnknown          // field, function result, untracked
	ctxParam            // aliases a context parameter of the function
	ctxBearing          // WithTimeout/WithDeadline somewhere on the path
)

type ctxStatus struct {
	kind  int
	param *types.Var // set for ctxParam
}

// RunModule implements ModuleAnalyzer.
func (a CtxDeadline) RunModule(m *Module) []Diagnostic {
	type site struct {
		pkg         *Package
		pos         token.Pos
		desc        string
		arg         ctxStatus
		sink        bool
		calleeParam *types.Var // obligation target for non-sink sites
	}
	var sites []site

	for _, fd := range m.funcs {
		pkg := fd.pkg
		status := classifyContexts(pkg, fd.decl)
		ast.Inspect(fd.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(pkg, call)
			if callee == nil {
				return true
			}
			sig, ok := callee.Type().(*types.Signature)
			if !ok {
				return true
			}
			params := sig.Params()
			if isRPCSink(callee, sig) {
				if len(call.Args) > 0 {
					sites = append(sites, site{
						pkg:  pkg,
						pos:  call.Pos(),
						desc: exprString(call.Fun),
						arg:  exprCtxStatus(pkg, status, call.Args[0]),
						sink: true,
					})
				}
				return true
			}
			if !m.inModule(callee) {
				return true
			}
			for i := 0; i < params.Len() && i < len(call.Args); i++ {
				if sig.Variadic() && i == params.Len()-1 {
					break
				}
				if !isContextType(params.At(i).Type()) {
					continue
				}
				sites = append(sites, site{
					pkg:         pkg,
					pos:         call.Pos(),
					desc:        exprString(call.Fun),
					arg:         exprCtxStatus(pkg, status, call.Args[i]),
					calleeParam: params.At(i),
				})
			}
			return true
		})
	}

	// Propagate obligations from sinks up through context parameters.
	needy := make(map[*types.Var]bool)
	for changed := true; changed; {
		changed = false
		for _, s := range sites {
			obligated := s.sink || (s.calleeParam != nil && needy[s.calleeParam])
			if obligated && s.arg.kind == ctxParam && !needy[s.arg.param] {
				needy[s.arg.param] = true
				changed = true
			}
		}
	}

	var diags []Diagnostic
	for _, s := range sites {
		if !inScope(a.Packages, s.pkg) || s.arg.kind != ctxUnbounded {
			continue
		}
		if s.sink {
			diags = append(diags, Diagnostic{
				Analyzer: "ctx-deadline",
				Pos:      s.pkg.Fset.Position(s.pos),
				Message:  fmt.Sprintf("upstream RPC %s is issued with a context that can never carry a deadline", s.desc),
			})
		} else if needy[s.calleeParam] {
			diags = append(diags, Diagnostic{
				Analyzer: "ctx-deadline",
				Pos:      s.pkg.Fset.Position(s.pos),
				Message:  fmt.Sprintf("call to %s passes a deadline-free context into an upstream RPC path", s.desc),
			})
		}
	}
	return diags
}

// inScope reports whether pkg is one of the listed import paths; an
// empty list puts every package in scope.
func inScope(paths []string, pkg *Package) bool {
	for _, p := range paths {
		if pkg.ImportPath == p {
			return true
		}
	}
	return len(paths) == 0
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

// isRPCSink reports whether fn is an RPC issue point: a method named
// Call or CallCred taking a context.Context first.
func isRPCSink(fn *types.Func, sig *types.Signature) bool {
	if sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Call", "CallCred":
	default:
		return false
	}
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// classifyContexts assigns a deadline status to every context-typed
// variable in fd by iterating its assignments to a fixpoint. The
// merge is lenient: bearing beats param beats unknown beats unbounded.
func classifyContexts(pkg *Package, fd *ast.FuncDecl) map[*types.Var]ctxStatus {
	status := make(map[*types.Var]ctxStatus)
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if v, ok := pkg.Info.Defs[name].(*types.Var); ok && isContextType(v.Type()) {
					status[v] = ctxStatus{kind: ctxParam, param: v}
				}
			}
		}
	}
	assign := func(lhs ast.Expr, st ctxStatus) bool {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return false
		}
		v, ok := pkg.Info.Defs[id].(*types.Var)
		if !ok {
			v, ok = pkg.Info.Uses[id].(*types.Var)
		}
		if !ok || !isContextType(v.Type()) {
			return false
		}
		if old, seen := status[v]; !seen || st.kind > old.kind {
			status[v] = st
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			var lhs, rhs []ast.Expr
			switch n := n.(type) {
			case *ast.AssignStmt:
				lhs, rhs = n.Lhs, n.Rhs
			case *ast.ValueSpec:
				lhs, rhs = identExprs(n.Names), n.Values
			}
			for i, l := range lhs {
				// ctx, cancel := context.WithTimeout(...): in the tuple
				// form every target takes the one call's status.
				r := i
				if len(rhs) == 1 {
					r = 0
				}
				if r < len(rhs) && assign(l, exprCtxStatus(pkg, status, rhs[r])) {
					changed = true
				}
			}
			return true
		})
	}
	return status
}

// exprCtxStatus classifies a context expression against the current
// variable statuses.
func exprCtxStatus(pkg *Package, status map[*types.Var]ctxStatus, e ast.Expr) ctxStatus {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			if st, ok := status[v]; ok {
				return st
			}
		}
		return ctxStatus{kind: ctxUnknown}
	case *ast.CallExpr:
		fn := calleeOf(pkg, x)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return ctxStatus{kind: ctxUnknown}
		}
		switch fn.Name() {
		case "WithTimeout", "WithDeadline":
			return ctxStatus{kind: ctxBearing}
		case "WithCancel", "WithValue", "WithoutCancel":
			if len(x.Args) > 0 {
				return exprCtxStatus(pkg, status, x.Args[0])
			}
		case "Background", "TODO":
			return ctxStatus{kind: ctxUnbounded}
		}
		return ctxStatus{kind: ctxUnknown}
	}
	return ctxStatus{kind: ctxUnknown}
}
