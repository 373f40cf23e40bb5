package vet

import (
	"go/ast"
	"go/types"
)

// SwallowedError flags discarded errors in non-test code: `_ = f()`
// and `v, _ := f()` where the blanked value is an error, and bare call
// statements whose results include an error. Deferred and `go` calls
// are exempt (their errors have nowhere to go), as are calls that
// cannot fail by contract: fmt printing, hash.Hash writes (defined
// never to return an error), and the write methods of strings.Builder,
// bytes.Buffer and math/rand. Anything else must be handled or
// recorded in .sgfsvet-ignore with a reviewed justification.
type SwallowedError struct{}

// Name implements Analyzer.
func (SwallowedError) Name() string { return "swallowed-error" }

// Run implements Analyzer.
func (SwallowedError) Run(m *Module) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range m.Pkgs {
		report := func(n ast.Node, msg string) {
			diags = append(diags, Diagnostic{
				Analyzer: "swallowed-error",
				Pos:      pkg.Fset.Position(n.Pos()),
				Message:  msg,
			})
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					call, ok := n.X.(*ast.CallExpr)
					if !ok || exemptCall(pkg, call) {
						return true
					}
					if returnsError(pkg, call) {
						report(n, "result of "+exprString(call.Fun)+" includes an error that is not checked")
					}
				case *ast.AssignStmt:
					diags = append(diags, blankedErrors(pkg, n)...)
				}
				return true
			})
		}
	}
	return diags
}

// blankedErrors reports error values assigned to the blank identifier.
func blankedErrors(pkg *Package, as *ast.AssignStmt) []Diagnostic {
	var diags []Diagnostic
	report := func(n ast.Node, msg string) {
		diags = append(diags, Diagnostic{
			Analyzer: "swallowed-error",
			Pos:      pkg.Fset.Position(n.Pos()),
			Message:  msg,
		})
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			if !isBlank(lhs) {
				continue
			}
			if call, ok := as.Rhs[i].(*ast.CallExpr); ok && exemptCall(pkg, call) {
				continue
			}
			if tv, ok := pkg.Info.Types[as.Rhs[i]]; ok && isErrType(tv.Type) {
				report(lhs, "error discarded with _")
			}
		}
		return diags
	}
	// v1, _, ... := f(): one multi-value call on the right.
	if len(as.Rhs) != 1 {
		return diags
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || exemptCall(pkg, call) {
		return diags
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return diags
	}
	tuple, ok := tv.Type.(*types.Tuple)
	if !ok || tuple.Len() != len(as.Lhs) {
		return diags
	}
	for i, lhs := range as.Lhs {
		if isBlank(lhs) && isErrType(tuple.At(i).Type()) {
			report(lhs, "error from "+exprString(call.Fun)+" discarded with _")
		}
	}
	return diags
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// returnsError reports whether any result of call is an error.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrType(tv.Type)
}

// exemptCall recognizes calls whose error return cannot meaningfully
// fail or is conventionally ignored.
func exemptCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "fmt":
				return true
			case "crypto/rand", "math/rand":
				// Read is documented never to return an error.
				return sel.Sel.Name == "Read"
			case "io":
				// io.WriteString into a hash never fails.
				if sel.Sel.Name == "WriteString" && len(call.Args) == 2 {
					return isHashLike(pkg.Info.Types[call.Args[0]].Type)
				}
			case "encoding/pem":
				// pem.Encode only fails when the writer does; an
				// in-memory buffer cannot.
				if sel.Sel.Name == "Encode" && len(call.Args) == 2 {
					t := pkg.Info.Types[call.Args[0]].Type
					return isNamed(t, "strings", "Builder") || isNamed(t, "bytes", "Buffer")
				}
			}
			return false
		}
	}
	recv := pkg.Info.Types[sel.X].Type
	if recv == nil {
		return false
	}
	if isHashLike(recv) {
		return true
	}
	if isNamed(recv, "strings", "Builder") || isNamed(recv, "bytes", "Buffer") ||
		isNamed(recv, "math/rand", "Rand") {
		return true
	}
	return false
}

// isHashLike detects hash.Hash implementations structurally: the
// method set carries both Sum and BlockSize. hash.Hash documents that
// Write never returns an error.
func isHashLike(t types.Type) bool {
	if t == nil {
		return false
	}
	return hasMethod(t, "Sum") && hasMethod(t, "BlockSize")
}

func hasMethod(t types.Type, name string) bool {
	if _, isIface := t.Underlying().(*types.Interface); !isIface {
		if _, isPtr := t.(*types.Pointer); !isPtr {
			t = types.NewPointer(t)
		}
	}
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}
