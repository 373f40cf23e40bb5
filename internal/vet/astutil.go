package vet

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedType returns the named type behind t, unwrapping one pointer.
func namedType(t types.Type) *types.Named {
	t = derefType(t)
	named, _ := t.(*types.Named)
	return named
}

// isNamed reports whether t is (a pointer to) pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	named := namedType(t)
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == name
}

// identExprs widens a declaration's names to expressions, so a var
// spec can be handled like the assignment it is.
func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// fieldVar resolves a selector expression x.f to the struct field it
// selects, nil for anything else (methods, qualified identifiers).
func fieldVar(pkg *Package, e ast.Expr) *types.Var {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// firstResultType returns the type of a call's (first) result: nil for
// a call with no results, found false when the call was not typed.
func firstResultType(pkg *Package, call *ast.CallExpr) (t types.Type, found bool) {
	tv, found := pkg.Info.Types[call]
	if !found {
		return nil, false
	}
	if tup, ok := tv.Type.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return nil, true
		}
		return tup.At(0).Type(), true
	}
	return tv.Type, true
}

// exprString renders a (selector) expression for diagnostics.
func exprString(e ast.Expr) string {
	var b strings.Builder
	writeExprString(&b, e)
	return b.String()
}

func writeExprString(b *strings.Builder, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		b.WriteString(x.Name)
	case *ast.SelectorExpr:
		writeExprString(b, x.X)
		b.WriteByte('.')
		b.WriteString(x.Sel.Name)
	case *ast.StarExpr:
		writeExprString(b, x.X)
	case *ast.ParenExpr:
		writeExprString(b, x.X)
	case *ast.IndexExpr:
		writeExprString(b, x.X)
		b.WriteString("[]")
	case *ast.CallExpr:
		writeExprString(b, x.Fun)
		b.WriteString("()")
	default:
		fmt.Fprintf(b, "<%T>", e)
	}
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	b, ok := pkg.Info.Uses[id].(*types.Builtin)
	if !ok {
		return ""
	}
	return b.Name()
}
