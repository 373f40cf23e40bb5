package cfg

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Source describes where a tainted value originated.
type Source struct {
	Pos  token.Pos
	Desc string
}

// State is the taint lattice element: the set of currently tainted
// variables (and struct-field objects), each mapped to its source.
// States are immutable; transfer steps copy on write. Join is set
// union, so the analysis is a may-analysis: a value tainted on any
// path into a node is tainted at that node.
type State map[types.Object]*Source

func (s State) with(o types.Object, src *Source) State {
	if o == nil || src == nil {
		return s
	}
	if old, ok := s[o]; ok && old == src {
		return s
	}
	out := make(State, len(s)+1)
	for k, v := range s {
		out[k] = v
	}
	out[o] = src
	return out
}

func (s State) without(objs []types.Object) State {
	any := false
	for _, o := range objs {
		if _, ok := s[o]; ok {
			any = true
			break
		}
	}
	if !any {
		return s
	}
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	for _, o := range objs {
		delete(out, o)
	}
	return out
}

// Spec parameterizes one taint analysis: what introduces taint, how
// calls transform it, what a branch condition proves, and where
// tainted values must not arrive. The engine supplies the generic
// propagation (assignments, expressions, joins); the spec supplies the
// security policy.
type Spec struct {
	Info *types.Info

	// Seed taints values on entry (used for interprocedural summaries:
	// seed a parameter, observe the sinks).
	Seed State

	// SourceOf reports whether evaluating e introduces fresh taint.
	// It is consulted before structural propagation, so a source
	// expression taints even when its operands are clean.
	SourceOf func(e ast.Expr) (string, bool)

	// SourceArg reports whether a call statement fills a variable from
	// a source through a pointer argument — c.Uint32(&n) on a codec —
	// and returns that argument's operand (n) and a description.
	SourceArg func(call *ast.CallExpr) (ast.Expr, string, bool)

	// CallTaint decides the taint of a non-source, non-builtin call
	// result given the receiver's and arguments' taint (nil = clean).
	// This is the one-level interprocedural hook: analyzers consult
	// function summaries here. A nil CallTaint treats every such call
	// as clean.
	CallTaint func(call *ast.CallExpr, recv *Source, args []*Source) *Source

	// FieldTaint decides the taint of reading a struct field whose own
	// object is clean but whose base container is tainted (nil = the
	// container's taint passes through). This is where an analysis
	// declares projection cuts — e.g. secret-flow holds that reading
	// cfg.ExportPath (a string) out of a struct that also carries a
	// private key does not extract the key.
	FieldTaint func(sel *ast.SelectorExpr, src *Source) *Source

	// BoundSanitizer, when true, clears taint on branch edges that
	// prove an upper bound: on the edge where `x <= K` (or `x < K`,
	// `x == K`, the negation of `x > K`…) holds and K is untainted,
	// every tainted variable in x is considered sanitized. Analyses
	// where a comparison proves nothing (a secret stays secret however
	// you bound it) leave this false.
	BoundSanitizer bool

	// Sink inspects each node with the taint state in force just
	// before it; taintOf evaluates the taint of any subexpression.
	// Called after the fixpoint, once per reachable node.
	Sink func(n ast.Node, taintOf func(ast.Expr) *Source)
}

// Run analyzes one function body given its graph (see Build): solve
// the taint dataflow to a fixpoint, then replay it feeding every
// reachable node to spec.Sink. Nested function literals are not
// descended into — analyze them separately.
func Run(g *Graph, spec *Spec) {
	t := spec.transfer()
	in := Solve(g, t)
	if spec.Sink == nil {
		return
	}
	Replay(g, t, in, func(f Fact, n ast.Node) {
		st := f.(State)
		spec.Sink(n, func(e ast.Expr) *Source { return spec.exprTaint(st, e) })
	})
}

func (spec *Spec) transfer() Transfer {
	entry := State{}
	for o, s := range spec.Seed {
		entry = entry.with(o, s)
	}
	return Transfer{
		Entry: entry,
		Node:  func(f Fact, n ast.Node) Fact { return spec.node(f.(State), n) },
		Edge:  func(f Fact, e Edge) Fact { return spec.edge(f.(State), e) },
		Join: func(a, b Fact) Fact {
			sa, sb := a.(State), b.(State)
			if len(sb) == 0 {
				return sa
			}
			if len(sa) == 0 {
				return sb
			}
			out := make(State, len(sa)+len(sb))
			for k, v := range sa {
				out[k] = v
			}
			for k, v := range sb {
				if _, ok := out[k]; !ok {
					out[k] = v
				}
			}
			return out
		},
		Equal: func(a, b Fact) bool {
			sa, sb := a.(State), b.(State)
			if len(sa) != len(sb) {
				return false
			}
			for k := range sa {
				if _, ok := sb[k]; !ok {
					return false
				}
			}
			return true
		},
	}
}

// node flows the state through one straight-line node.
func (spec *Spec) node(st State, n ast.Node) State {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			// Evaluate all RHS taints against the pre-state, then bind.
			taints := make([]*Source, len(n.Rhs))
			for i, r := range n.Rhs {
				taints[i] = spec.exprTaint(st, r)
			}
			for i, l := range n.Lhs {
				st = spec.assign(st, l, taints[i], n.Tok != token.ASSIGN && n.Tok != token.DEFINE)
			}
			return st
		}
		// Tuple form: x, y := f(). Every LHS gets the RHS taint —
		// except error results: a (secret, error) return does not leak
		// the secret through err, and tainting err would flag every
		// `log.Fatalf("%v", err)` after such a call.
		src := spec.exprTaint(st, n.Rhs[0])
		for _, l := range n.Lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if o := spec.lhsObject(id); o != nil && isErrorType(o.Type()) {
					continue
				}
			}
			st = spec.assign(st, l, src, false)
		}
		return st

	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return st
		}
		for _, s := range gd.Specs {
			vs, ok := s.(*ast.ValueSpec)
			if !ok {
				continue
			}
			if len(vs.Names) == len(vs.Values) {
				for i, name := range vs.Names {
					st = spec.assign(st, name, spec.exprTaint(st, vs.Values[i]), false)
				}
			} else if len(vs.Values) == 1 {
				src := spec.exprTaint(st, vs.Values[0])
				for _, name := range vs.Names {
					st = spec.assign(st, name, src, false)
				}
			}
		}
		return st

	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && spec.SourceArg != nil {
			if x, desc, ok := spec.SourceArg(call); ok {
				return spec.assign(st, x, &Source{Pos: call.Pos(), Desc: desc}, false)
			}
		}
		return st

	case *ast.RangeStmt:
		src := spec.exprTaint(st, n.X)
		if src == nil {
			return st
		}
		tv, ok := spec.Info.Types[n.X]
		if ok {
			if basic, isBasic := tv.Type.Underlying().(*types.Basic); isBasic && basic.Info()&types.IsInteger != 0 {
				// range over a tainted integer: the index is bounded by
				// the tainted value and is just as dangerous.
				return spec.assign(st, n.Key, src, false)
			}
		}
		return spec.assign(st, n.Value, src, false)
	}
	return st
}

// assign binds taint to an assignment target. merge keeps existing
// taint (compound assignment x += y).
func (spec *Spec) assign(st State, lhs ast.Expr, src *Source, merge bool) State {
	obj := spec.lhsObject(lhs)
	if obj == nil {
		return st
	}
	if src != nil {
		return st.with(obj, src)
	}
	if merge || partialWrite(lhs) {
		return st
	}
	return st.without([]types.Object{obj})
}

// partialWrite reports whether lhs writes through an index or a
// dereference. Such a write touches an element or the pointee, not the
// container variable itself, so a clean RHS must not scrub the
// container's taint in a may-analysis.
func partialWrite(lhs ast.Expr) bool {
	switch ast.Unparen(lhs).(type) {
	case *ast.IndexExpr, *ast.StarExpr:
		return true
	}
	return false
}

// lhsObject resolves the variable or field object an assignment
// target writes. Writes through indexing or dereference taint the
// container/pointer variable itself (coarse, but a may-analysis can
// afford it).
func (spec *Spec) lhsObject(lhs ast.Expr) types.Object {
	switch x := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return nil
		}
		if o := spec.Info.Defs[x]; o != nil {
			return o
		}
		return spec.Info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := spec.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return sel.Obj()
		}
		return spec.Info.Uses[x.Sel]
	case *ast.IndexExpr:
		return spec.lhsObject(x.X)
	case *ast.StarExpr:
		return spec.lhsObject(x.X)
	case *ast.SliceExpr:
		return spec.lhsObject(x.X)
	}
	return nil
}

// exprTaint evaluates the taint of an expression under st.
func (spec *Spec) exprTaint(st State, e ast.Expr) *Source {
	if e == nil {
		return nil
	}
	if spec.SourceOf != nil {
		if desc, ok := spec.SourceOf(e); ok {
			return &Source{Pos: e.Pos(), Desc: desc}
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		if o := spec.Info.Uses[x]; o != nil {
			return st[o]
		}
		if o := spec.Info.Defs[x]; o != nil {
			return st[o]
		}
		return nil
	case *ast.ParenExpr:
		return spec.exprTaint(st, x.X)
	case *ast.SelectorExpr:
		isField := false
		if sel, ok := spec.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			isField = true
			if src := st[sel.Obj()]; src != nil {
				return src
			}
		}
		if o := spec.Info.Uses[x.Sel]; o != nil {
			if src := st[o]; src != nil {
				return src
			}
		}
		src := spec.exprTaint(st, x.X)
		if src != nil && isField && spec.FieldTaint != nil {
			return spec.FieldTaint(x, src)
		}
		return src
	case *ast.UnaryExpr:
		return spec.exprTaint(st, x.X)
	case *ast.StarExpr:
		return spec.exprTaint(st, x.X)
	case *ast.BinaryExpr:
		if x.Op == token.REM {
			// x % k is bounded by k: when the divisor is untainted the
			// result is no longer attacker-sized.
			return spec.exprTaint(st, x.Y)
		}
		if src := spec.exprTaint(st, x.X); src != nil {
			return src
		}
		return spec.exprTaint(st, x.Y)
	case *ast.IndexExpr:
		return spec.exprTaint(st, x.X)
	case *ast.SliceExpr:
		return spec.exprTaint(st, x.X)
	case *ast.TypeAssertExpr:
		return spec.exprTaint(st, x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if src := spec.exprTaint(st, el); src != nil {
				return src
			}
		}
		return nil
	case *ast.CallExpr:
		return spec.callTaint(st, x)
	}
	return nil
}

func (spec *Spec) callTaint(st State, call *ast.CallExpr) *Source {
	fun := ast.Unparen(call.Fun)
	// Conversions pass taint through: uint32(n), T(x).
	if tv, ok := spec.Info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return spec.exprTaint(st, call.Args[0])
		}
		return nil
	}
	// Builtins have fixed taint behavior.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := spec.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap", "make", "new", "copy", "clear", "delete", "close", "panic", "print", "println":
				// len/cap of a tainted buffer are bounded by what
				// actually arrived; make's result is a fresh value.
				return nil
			case "min":
				// min(x, bound) is bounded when any operand is clean.
				var src *Source
				for _, a := range call.Args {
					s := spec.exprTaint(st, a)
					if s == nil {
						return nil
					}
					src = s
				}
				return src
			case "max", "append":
				for _, a := range call.Args {
					if src := spec.exprTaint(st, a); src != nil {
						return src
					}
				}
				return nil
			}
		}
	}
	if spec.CallTaint == nil {
		return nil
	}
	var recv *Source
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if s, isSel := spec.Info.Selections[sel]; isSel && s.Kind() == types.MethodVal {
			recv = spec.exprTaint(st, sel.X)
		}
	}
	args := make([]*Source, len(call.Args))
	for i, a := range call.Args {
		args[i] = spec.exprTaint(st, a)
	}
	return spec.CallTaint(call, recv, args)
}

// edge refines taint along a conditional edge. With BoundSanitizer
// enabled, a comparison against an untainted bound sanitizes the
// tainted side on the edge where the bound holds.
func (spec *Spec) edge(st State, e Edge) State {
	if !spec.BoundSanitizer || len(st) == 0 {
		return st
	}
	return spec.sanitize(st, e.Cond, e.Val)
}

func (spec *Spec) sanitize(st State, cond ast.Expr, val bool) State {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return spec.sanitize(st, c.X, !val)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if val { // both conjuncts hold
				return spec.sanitize(spec.sanitize(st, c.X, true), c.Y, true)
			}
		case token.LOR:
			if !val { // both disjuncts failed
				return spec.sanitize(spec.sanitize(st, c.X, false), c.Y, false)
			}
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			left := spec.taintedObjs(st, c.X)
			right := spec.taintedObjs(st, c.Y)
			// The bound side must be wholly untainted (no tainted
			// variables AND not itself a source expression): comparing
			// one wire-decoded length against another proves nothing.
			if len(left) > 0 && spec.exprTaint(st, c.Y) == nil && boundsLeft(c.Op, val) {
				return st.without(left)
			}
			if len(right) > 0 && spec.exprTaint(st, c.X) == nil && boundsLeft(flip(c.Op), val) {
				return st.without(right)
			}
		}
	}
	return st
}

// boundsLeft reports whether `left op right == val` proves an upper
// bound on the left operand (right being the clean bound).
func boundsLeft(op token.Token, val bool) bool {
	switch op {
	case token.LSS, token.LEQ:
		return val
	case token.GTR, token.GEQ:
		return !val
	case token.EQL:
		return val
	case token.NEQ:
		return !val
	}
	return false
}

func flip(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// taintedObjs collects the tainted variables and fields mentioned in e.
func (spec *Spec) taintedObjs(st State, e ast.Expr) []types.Object {
	var out []types.Object
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if o := spec.Info.Uses[x]; o != nil && st[o] != nil {
				out = append(out, o)
			}
		case *ast.SelectorExpr:
			if sel, ok := spec.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if st[sel.Obj()] != nil {
					out = append(out, sel.Obj())
				}
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return out
}
