package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/vet/cfg"
)

// The obligation engine: the CFG must-discharge analysis behind
// resource-leak and pool-lifecycle. An obligation is born at an
// acquisition (a dial, an open, a pool Get), follows the variables
// that alias the acquired object through assignments, and is
// discharged by whatever the policy counts as a release. The engine
// owns everything that is the same for both analyzers — the fact, the
// alias tracking through assignments and declarations, parameter
// markers, per-function summaries computed by Module.bottomUp so
// get/put helpers and dial-then-wrap constructors compose, and the
// solve-then-report driver. A policy (obPolicy) says what acquires,
// which events discharge or taint an obligation, and what to report.

// obligation identifies one tracked object: an acquisition call site
// (or any other site a policy starts tracking at) or, during summary
// computation, a parameter marker.
type obligation struct {
	pos   token.Pos
	desc  string
	param int  // parameter index for markers, -1 otherwise
	recv  bool // receiver marker
}

// obInfo is an obligation's per-path state: the variables currently
// referring to the object, plus what each policy needs to remember.
type obInfo struct {
	aliases map[types.Object]bool
	// errObj (resource-leak) is the error bound beside the acquisition:
	// where it is non-nil the resource is nil and nothing leaks.
	errObj types.Object
	// pool (pool-lifecycle) is what has happened to the object so far.
	pool poolState
}

func (i *obInfo) clone() *obInfo {
	c := *i
	c.aliases = make(map[types.Object]bool, len(i.aliases))
	for o := range i.aliases {
		c.aliases[o] = true
	}
	return &c
}

// obFact is the dataflow fact: live obligations. Treated as immutable;
// every mutation copies.
type obFact map[*obligation]*obInfo

func (f obFact) clone() obFact {
	c := make(obFact, len(f)+1)
	for ob, info := range f {
		c[ob] = info
	}
	return c
}

// with returns f with ob's state replaced by info.
func (f obFact) with(ob *obligation, info *obInfo) obFact {
	c := f.clone()
	c[ob] = info
	return c
}

func joinOb(a, b cfg.Fact) cfg.Fact {
	fa, fb := a.(obFact), b.(obFact)
	if len(fb) == 0 {
		return fa
	}
	if len(fa) == 0 {
		return fb
	}
	out := fa.clone()
	for ob, info := range fb {
		have, ok := out[ob]
		if !ok {
			out[ob] = info
			continue
		}
		if equalObInfo(have, info) {
			continue
		}
		merged := have.clone()
		for o := range info.aliases {
			merged.aliases[o] = true
		}
		merged.pool = have.pool.join(info.pool)
		out[ob] = merged
	}
	return out
}

func equalObInfo(a, b *obInfo) bool {
	if len(a.aliases) != len(b.aliases) || !a.pool.same(b.pool) {
		return false
	}
	for o := range a.aliases {
		if !b.aliases[o] {
			return false
		}
	}
	return true
}

func equalOb(a, b cfg.Fact) bool {
	fa, fb := a.(obFact), b.(obFact)
	if len(fa) != len(fb) {
		return false
	}
	for ob, ia := range fa {
		ib, ok := fb[ob]
		if !ok || !equalObInfo(ia, ib) {
			return false
		}
	}
	return true
}

// obSummary is what one function does with the objects it is handed
// and the objects it makes.
type obSummary struct {
	// Returns, when non-empty, names an object acquired inside the
	// function that a return value carries — the caller now owns it.
	Returns string
	// ParamToReturn[i]: argument i comes back as (part of) a return
	// value — the caller's obligation transfers to the result.
	ParamToReturn []bool
	// ParamDone[i]: the function discharges argument i — releases or
	// stores it (resource-leak), returns it to its pool on at least one
	// path (pool-lifecycle). RecvDone is the same for the receiver.
	ParamDone []bool
	RecvDone  bool

	variadic bool
}

func (s *obSummary) equal(o *obSummary) bool {
	if o == nil || s.Returns != o.Returns || s.RecvDone != o.RecvDone {
		return false
	}
	for i := range s.ParamDone {
		if s.ParamDone[i] != o.ParamDone[i] || s.ParamToReturn[i] != o.ParamToReturn[i] {
			return false
		}
	}
	return true
}

func (s *obSummary) argIndex(i int) int { return argIndex(len(s.ParamDone), s.variadic, i) }

func (s *obSummary) noteReturn(desc string) {
	if s.Returns == "" {
		s.Returns = desc
	}
}

// obPolicy is what distinguishes one obligation analyzer from the
// other. Every method that sees a fact must treat it as immutable.
type obPolicy interface {
	// trackable reports whether a parameter (or the receiver) is worth
	// a marker obligation during summary computation.
	trackable(v *types.Var, recv bool) bool
	// acquire classifies a call as producing an object its caller must
	// discharge; desc (never empty) names the object in messages.
	acquire(r *obRun, st obFact, call *ast.CallExpr) (desc string, ok bool)
	// unwrap peels the wrappers an acquiring call may sit under on the
	// right of an assignment or in a return.
	unwrap(e ast.Expr) *ast.CallExpr
	// followsWrappers: whether an obligation travels through composite
	// literals that embed an alias and through calls whose summary
	// passes an argument back (wrapping a conn moves the obligation
	// onto the wrapper).
	followsWrappers() bool
	// stored handles an alias written into a field, element or global.
	stored(r *obRun, st obFact, ob *obligation, at ast.Expr) obFact
	// node and edge are the transfer functions; node is built from the
	// engine's assign / valueSpecs / ret plus the policy's own events.
	node(r *obRun, st obFact, n ast.Node) obFact
	edge(r *obRun, st obFact, e cfg.Edge) obFact
	// report replays one solved body (reporting mode, no markers) and
	// returns its findings.
	report(r *obRun, b funcBody, g *cfg.Graph, t cfg.Transfer, in map[*cfg.Block]cfg.Fact) []Diagnostic
}

// obAnalysis is the module-wide state of one policy's run: computed
// summaries plus interned obligations (convergence requires one
// obligation object per site, not one per transfer evaluation).
type obAnalysis struct {
	m        *Module
	pol      obPolicy
	sums     map[*types.Func]*obSummary
	siteObs  map[ast.Node]*obligation
	paramObs map[types.Object]*obligation
}

// runObligations computes pol's summaries bottom-up, then solves every
// body in reporting mode and hands it to the policy's report.
func runObligations(m *Module, pol obPolicy) []Diagnostic {
	a := &obAnalysis{
		m:        m,
		pol:      pol,
		sums:     make(map[*types.Func]*obSummary),
		siteObs:  make(map[ast.Node]*obligation),
		paramObs: make(map[types.Object]*obligation),
	}
	m.bottomUp(a.summarize)

	var diags []Diagnostic
	for _, b := range m.bodies {
		r := &obRun{a: a, pkg: b.pkg, fnName: b.decl.Name.Name}
		g := m.cfgOf(b.body)
		t := r.transfer(obFact{})
		diags = append(diags, pol.report(r, b, g, t, cfg.Solve(g, t))...)
	}
	return diags
}

func (a *obAnalysis) siteOb(at ast.Node, desc string) *obligation {
	ob := a.siteObs[at]
	if ob == nil {
		ob = &obligation{pos: at.Pos(), desc: desc, param: -1}
		a.siteObs[at] = ob
	}
	return ob
}

func (a *obAnalysis) paramOb(v *types.Var, index int, recv bool) *obligation {
	ob := a.paramObs[v]
	if ob == nil {
		ob = &obligation{pos: v.Pos(), desc: "parameter " + v.Name(), param: index, recv: recv}
		a.paramObs[v] = ob
	}
	return ob
}

// summarize recomputes fd's summary by solving its body with a marker
// obligation per trackable parameter; reports change.
func (a *obAnalysis) summarize(fd *funcDecl) bool {
	sig := fd.fn.Type().(*types.Signature)
	n := sig.Params().Len()
	cur := &obSummary{
		ParamToReturn: make([]bool, n),
		ParamDone:     make([]bool, n),
		variadic:      sig.Variadic(),
	}
	entry := obFact{}
	seed := func(v *types.Var, index int, recv bool) {
		if v != nil && a.pol.trackable(v, recv) {
			entry[a.paramOb(v, index, recv)] = &obInfo{aliases: map[types.Object]bool{v: true}}
		}
	}
	for i := 0; i < n; i++ {
		seed(sig.Params().At(i), i, false)
	}
	seed(sig.Recv(), -1, true)

	r := &obRun{a: a, pkg: fd.pkg, fnName: fd.fn.Name(), sum: cur}
	cfg.Solve(a.m.cfgOf(fd.decl.Body), r.transfer(entry))

	if cur.equal(a.sums[fd.fn]) {
		return false
	}
	a.sums[fd.fn] = cur
	return true
}

// obRun analyzes one function body, in summary mode (sum != nil,
// parameter markers seeded; the policy's events record into sum) or
// reporting mode.
type obRun struct {
	a      *obAnalysis
	pkg    *Package
	fnName string
	sum    *obSummary // nil in reporting mode
}

func (r *obRun) transfer(entry obFact) cfg.Transfer {
	return cfg.Transfer{
		Entry: entry,
		Node:  func(f cfg.Fact, n ast.Node) cfg.Fact { return r.a.pol.node(r, f.(obFact), n) },
		Edge:  func(f cfg.Fact, e cfg.Edge) cfg.Fact { return r.a.pol.edge(r, f.(obFact), e) },
		Join:  joinOb,
		Equal: equalOb,
	}
}

// sumOf returns the summary of the module function a call statically
// invokes, nil otherwise.
func (r *obRun) sumOf(call *ast.CallExpr) *obSummary {
	return r.a.sums[calleeOf(r.pkg, call)]
}

// assign flows an assignment statement: acquisitions start
// obligations, copies extend alias sets, rebinding shrinks them.
func (r *obRun) assign(st obFact, as *ast.AssignStmt) obFact {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		return st // compound assignment: no object movement
	}
	if len(as.Lhs) != len(as.Rhs) && len(as.Rhs) == 1 {
		return r.assignTuple(st, as.Lhs, as.Rhs[0])
	}
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			st = r.assign1(st, as.Lhs[i], as.Rhs[i])
		}
	}
	return st
}

// valueSpecs flows the var declarations of a DeclStmt like the
// assignments they are.
func (r *obRun) valueSpecs(st obFact, s *ast.DeclStmt) obFact {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return st
	}
	for _, sp := range gd.Specs {
		vs, ok := sp.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			st = r.assignTuple(st, identExprs(vs.Names), vs.Values[0])
			continue
		}
		for i, name := range vs.Names {
			if i < len(vs.Values) {
				st = r.assign1(st, name, vs.Values[i])
			}
		}
	}
	return st
}

// assignTuple handles `conn, err := acquire()`: the non-error targets
// alias the acquired object (or, when the callee hands an argument's
// object back, join that argument's alias set).
func (r *obRun) assignTuple(st obFact, lhs []ast.Expr, rhs ast.Expr) obFact {
	var ob *obligation
	var info *obInfo
	if call := r.a.pol.unwrap(rhs); call != nil {
		if desc, ok := r.a.pol.acquire(r, st, call); ok {
			ob, info = r.a.siteOb(call, desc), &obInfo{aliases: make(map[types.Object]bool)}
		} else if ob = r.callResultOb(st, call); ob != nil {
			info = st[ob].clone()
		}
	}
	for _, l := range lhs {
		obj := identObj(r.pkg, l)
		if obj == nil {
			continue
		}
		if isErrType(obj.Type()) {
			if info != nil {
				info.errObj = obj
			}
			continue
		}
		st = r.killObj(st, obj)
		if info != nil {
			info.aliases[obj] = true
		}
	}
	if ob == nil {
		return st
	}
	return st.with(ob, info)
}

// assign1 handles one lhs = rhs pair.
func (r *obRun) assign1(st obFact, lhs, rhs ast.Expr) obFact {
	obj := identObj(r.pkg, lhs)
	if call := r.a.pol.unwrap(rhs); call != nil {
		if desc, ok := r.a.pol.acquire(r, st, call); ok {
			if obj == nil {
				// Acquired straight into a field/container: stored, owned
				// by the structure.
				return st
			}
			// A fresh acquisition at a loop-reused site resets the state.
			return r.killObj(st, obj).with(r.a.siteOb(call, desc), &obInfo{aliases: map[types.Object]bool{obj: true}})
		}
	}
	if ob := r.aliasOb(st, rhs); ob != nil {
		if obj == nil {
			return r.a.pol.stored(r, st, ob, rhs)
		}
		st = r.killObj(st, obj)
		info := st[ob].clone()
		info.aliases[obj] = true
		return st.with(ob, info)
	}
	return r.killObj(st, obj)
}

// ret records, in summary mode, what a return statement hands to the
// caller, and clears the state so the exit block's in-state isolates
// what falls off the end (reporting inspects the pre-return fact).
func (r *obRun) ret(st obFact, ret *ast.ReturnStmt) obFact {
	if r.sum == nil {
		return obFact{}
	}
	for _, res := range ret.Results {
		if call := r.a.pol.unwrap(res); call != nil {
			if desc, ok := r.a.pol.acquire(r, st, call); ok {
				r.sum.noteReturn(desc)
				continue
			}
		}
		switch ob := r.aliasOb(st, res); {
		case ob == nil, ob.recv:
			// Returning the receiver (chaining) is not a transfer.
		case ob.param >= 0:
			if r.a.pol.followsWrappers() {
				r.sum.ParamToReturn[ob.param] = true
			}
		default:
			r.sum.noteReturn(ob.desc)
		}
	}
	return obFact{}
}

// killObj removes obj from every alias set (the variable was rebound).
// An obligation whose last alias disappears stays live — it can no
// longer be discharged through a name.
func (r *obRun) killObj(st obFact, obj types.Object) obFact {
	if obj == nil {
		return st
	}
	var out obFact
	for ob, info := range st {
		if !info.aliases[obj] {
			continue
		}
		if out == nil {
			out = st.clone()
		}
		ni := info.clone()
		delete(ni.aliases, obj)
		out[ob] = ni
	}
	if out == nil {
		return st
	}
	return out
}

// obOfObj finds the live obligation obj is an alias of, if any.
func (r *obRun) obOfObj(st obFact, obj types.Object) *obligation {
	if obj == nil {
		return nil
	}
	for ob, info := range st {
		if info.aliases[obj] {
			return ob
		}
	}
	return nil
}

// aliasOb resolves an expression to the obligation it carries: direct
// aliases plus address-of, dereference, slicing and type-assertion
// wrappers (Put(&p), *pool.Get().(*[]byte), p[:0] all reach the same
// object). Field selections do not carry their base's obligation.
func (r *obRun) aliasOb(st obFact, e ast.Expr) *obligation {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return r.obOfObj(st, r.pkg.Info.Uses[x])
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return r.aliasOb(st, x.X)
		}
	case *ast.StarExpr:
		return r.aliasOb(st, x.X)
	case *ast.TypeAssertExpr:
		return r.aliasOb(st, x.X)
	case *ast.SliceExpr:
		return r.aliasOb(st, x.X)
	case *ast.CompositeLit:
		if !r.a.pol.followsWrappers() {
			return nil
		}
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if ob := r.aliasOb(st, el); ob != nil {
				return ob
			}
		}
	case *ast.CallExpr:
		return r.callResultOb(st, x)
	}
	return nil
}

// callResultOb reports the argument obligation a call passes back to
// its results, per the callee's summary.
func (r *obRun) callResultOb(st obFact, call *ast.CallExpr) *obligation {
	sum := r.sumOf(call)
	if sum == nil {
		return nil
	}
	for i, arg := range call.Args {
		if j := sum.argIndex(i); j >= 0 && sum.ParamToReturn[j] {
			if ob := r.aliasOb(st, arg); ob != nil {
				return ob
			}
		}
	}
	return nil
}

// unwrapCall peels parens, type assertions and (when derefs is set)
// dereferences off an expression and returns the call underneath, nil
// otherwise.
func unwrapCall(e ast.Expr, derefs bool) *ast.CallExpr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.StarExpr:
			if !derefs {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			return x
		default:
			return nil
		}
	}
}

// noReturnCall recognizes calls that terminate the process or
// goroutine: log.Fatal*, os.Exit, runtime.Goexit, and the panic
// builtin. No code after one runs on its path, so nothing live there
// can leak or be misused.
func noReturnCall(pkg *Package, call *ast.CallExpr) bool {
	if builtinName(pkg, call) == "panic" {
		return true
	}
	fn, path := stdCallee(pkg, call)
	if fn == nil {
		return false
	}
	switch path {
	case "log":
		return strings.HasPrefix(fn.Name(), "Fatal")
	case "os":
		return fn.Name() == "Exit"
	case "runtime":
		return fn.Name() == "Goexit"
	}
	return false
}

// identObj resolves a plain identifier target to its object; selector,
// index and star targets yield nil (they are container stores).
func identObj(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if o := pkg.Info.Defs[id]; o != nil {
		return o
	}
	return pkg.Info.Uses[id]
}

// isErrType reports whether t is the error interface.
func isErrType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
