package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/vet/cfg"
)

// UnboundedAlloc flags wire-decoded integers that reach an allocation
// size with no dominating bound check — the decode-DoS class: a remote
// peer supplies a length word and the server calls make with it before
// comparing it against anything. Taint starts at the variable an
// xdr.Codec integer method fills through its pointer argument
// (c.Uint32(&n), c.Uint64(&n), xdr.Enum(c, &n)), at
// xdr.Decoder.Uint32 / Uint64 results and at encoding/binary
// byte-order reads (record-marking lengths), propagates through module
// call chains via the call-graph summary fixpoint (summary.go) and
// through struct fields that any decoder fills from the wire, and is
// sanitized by a branch that
// compares the value against an untainted bound (`if n > maxFrame {
// ... }`, `if count > PreferredIO { count = PreferredIO }`). The same
// bound checks sanitize parameters during summary computation, so a
// helper that clamps its argument before allocating summarizes as
// safe. Sinks are make sizes, io.CopyN lengths and io.ReadAtLeast
// minimums.
type UnboundedAlloc struct {
	// Intraprocedural disables the deep summaries (regression tests
	// only; see SecretFlow.Intraprocedural).
	Intraprocedural bool
}

// Name implements Analyzer.
func (UnboundedAlloc) Name() string { return "unbounded-alloc" }

// Run implements Analyzer.
func (a UnboundedAlloc) Run(m *Module) []Diagnostic {
	pol := summaryPolicy{
		mkSpec: func(pkg *Package) *cfg.Spec {
			return &cfg.Spec{
				Info:           pkg.Info,
				SourceOf:       func(e ast.Expr) (string, bool) { return wireLengthSource(pkg, e) },
				SourceArg:      func(call *ast.CallExpr) (ast.Expr, string, bool) { return codecLength(pkg, call) },
				BoundSanitizer: true,
			}
		},
		sinkOf: func(pkg *Package, call *ast.CallExpr) (int, string) {
			return allocSink(pkg, call)
		},
		// Length taint rides on integers. A constructor that decodes a
		// size while building a *File does not return "a length" — only
		// integer-valued calls carry the taint to their callers.
		resultOK: isIntegerType,
	}

	// Pass A: per-function summaries — who returns wire-decoded
	// values, whose parameters reach allocation sites unclamped.
	ss := emptySummaries(pol)
	if !a.Intraprocedural {
		ss = computeSummaries(m, pol)
	}

	// Pass B: integer struct fields filled from the wire anywhere in
	// the module (an XDR method's c.Uint32(&h.Count)) carry taint into
	// every function that reads them.
	fields := cfg.State{}
	ss.analyze(m, nil, func(b funcBody, n ast.Node, taintOf func(ast.Expr) *cfg.Source) {
		record := func(lhs ast.Expr, src *cfg.Source) {
			if src == nil {
				return
			}
			f := fieldVar(b.pkg, lhs)
			if f == nil || !isIntegerType(f.Type()) {
				return
			}
			if _, seen := fields[f]; !seen {
				fields[f] = &cfg.Source{
					Pos:  f.Pos(),
					Desc: fmt.Sprintf("wire-decoded field %s.%s", f.Pkg().Name(), f.Name()),
				}
			}
		}
		if es, ok := n.(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if x, desc, ok := codecLength(b.pkg, call); ok {
					record(x, &cfg.Source{Pos: call.Pos(), Desc: desc})
				}
			}
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		if len(as.Lhs) == len(as.Rhs) {
			for i := range as.Lhs {
				record(as.Lhs[i], taintOf(as.Rhs[i]))
			}
		} else {
			src := taintOf(as.Rhs[0])
			for _, l := range as.Lhs {
				record(l, src)
			}
		}
	})

	// Pass C: report sinks, with wire-filled fields seeded everywhere.
	return reportDeepFlows(m, ss, a.Name(), fields,
		func(src *cfg.Source, what, fn string) string {
			return fmt.Sprintf("%s reaches %s without a bound check in %s", src.Desc, what, fn)
		})
}

// wireLengthSource recognizes expressions that yield an
// attacker-controlled integer: xdr.Decoder.Uint32/Uint64 and
// encoding/binary byte-order reads.
func wireLengthSource(pkg *Package, e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn, path := stdCallee(pkg, call)
	if fn == nil {
		return "", false
	}
	switch path {
	case "repro/internal/xdr":
		switch fn.Name() {
		case "Uint32", "Uint64":
			if named := recvNamed(pkg, call); named != nil && named.Obj().Name() == "Decoder" {
				return "xdr-decoded length (Decoder." + fn.Name() + ")", true
			}
		}
	case "encoding/binary":
		switch fn.Name() {
		case "Uint16", "Uint32", "Uint64":
			return "wire length (binary." + fn.Name() + ")", true
		}
	}
	return "", false
}

// codecLength recognizes a call that fills an integer from the wire
// through a pointer argument — c.Uint32(&n) and c.Uint64(&n) on an
// xdr.Codec, xdr.Enum(c, &n) — and returns that argument's operand.
// Encoding runs the same call, so this over-approximates: every
// integer an XDR description names counts as wire-decoded.
func codecLength(pkg *Package, call *ast.CallExpr) (ast.Expr, string, bool) {
	fn, path := stdCallee(pkg, call)
	if fn == nil || path != "repro/internal/xdr" {
		return nil, "", false
	}
	arg := -1
	switch fn.Name() {
	case "Uint32", "Uint64":
		if named := recvNamed(pkg, call); named != nil && named.Obj().Name() == "Codec" {
			arg = 0
		}
	case "Enum":
		arg = 1
	}
	if arg < 0 || arg >= len(call.Args) {
		return nil, "", false
	}
	u, ok := ast.Unparen(call.Args[arg]).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, "", false
	}
	return u.X, "xdr-decoded length (Codec." + fn.Name() + ")", true
}

// allocSink reports the index of the first size argument when call is
// an allocation-ish sink, with a description; -1 otherwise.
func allocSink(pkg *Package, call *ast.CallExpr) (int, string) {
	if builtinName(pkg, call) == "make" {
		return 1, "make size"
	}
	fn, path := stdCallee(pkg, call)
	if fn == nil || path != "io" {
		return -1, ""
	}
	switch fn.Name() {
	case "CopyN":
		return 2, "io.CopyN length"
	case "ReadAtLeast":
		return 2, "io.ReadAtLeast minimum"
	}
	return -1, ""
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}
