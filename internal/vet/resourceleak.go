package vet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/vet/cfg"
)

// ResourceLeak is a CFG must-release analysis: a resource acquired in
// a function — a net.Conn, *os.File, secure-channel session, RPC
// client, or pool-acquired buffer — must be released on every path out
// of it, including error and early-return paths. "Released" means
// closed, returned to its pool, handed to the caller (returned),
// stored into a longer-lived structure, sent on a channel, captured by
// a goroutine/closure, or passed to a function whose summary releases
// or stores it. The per-function summaries (does this function release
// its argument? does it hand back a resource the caller now owns?) are
// computed bottom-up over the call-graph SCC condensation, so recGet /
// recPut style pool helpers and dial-then-wrap constructors compose.
//
// Precision choices, tuned to avoid false positives at the cost of
// missed leaks: passing an aliased resource to a standard-library or
// dynamically-dispatched call conservatively discharges the
// obligation, and the error object bound alongside an acquisition
// kills the obligation on the error-taken edge (the resource is nil
// there — there is nothing to close).
type ResourceLeak struct{}

// Name implements Analyzer.
func (ResourceLeak) Name() string { return "resource-leak" }

// RunModule implements ModuleAnalyzer: the obligation engine under the
// leak policy.
func (ResourceLeak) RunModule(m *Module) []Diagnostic {
	return runObligations(m, leakPolicy{})
}

// leakPolicy is resource-leak's obPolicy: acquisitions are dial / open
// / accept / pool-get calls and constructors that hand one back; a
// release, a store or a hand-off discharges (removes) the obligation;
// whatever is still live at a return or at the end of the body leaked.
type leakPolicy struct{}

func (leakPolicy) followsWrappers() bool { return true }

func (leakPolicy) unwrap(e ast.Expr) *ast.CallExpr { return unwrapCall(e, false) }

func (leakPolicy) trackable(v *types.Var, recv bool) bool {
	return recv || trackableParam(v.Type())
}

// stored: the structure owns it now.
func (p leakPolicy) stored(r *obRun, st obFact, ob *obligation, _ ast.Expr) obFact {
	return p.discharge(r, st, ob)
}

// report returns a diagnostic per leaked acquisition.
func (p leakPolicy) report(r *obRun, b funcBody, g *cfg.Graph, t cfg.Transfer, in map[*cfg.Block]cfg.Fact) []Diagnostic {
	leaks := make(map[*obligation]token.Pos)
	note := func(ob *obligation, at token.Pos) {
		if ob.param >= 0 || ob.recv {
			return
		}
		if _, seen := leaks[ob]; !seen {
			leaks[ob] = at
		}
	}
	cfg.Replay(g, t, in, func(f cfg.Fact, n ast.Node) {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return
		}
		// The calls in the return statement run first: a resource one
		// of them takes (a wrapper outside the module) is not leaked.
		st := p.calls(r, f.(obFact), ret)
		// Returned resources are the caller's now.
		returned := make(map[*obligation]bool)
		for _, res := range ret.Results {
			if ob := r.aliasOb(st, res); ob != nil {
				returned[ob] = true
			}
		}
		for ob := range st {
			if !returned[ob] {
				note(ob, ret.Pos())
			}
		}
	})
	// The return transfer clears every obligation, so the exit block's
	// in-state holds only what leaked by falling off the end.
	if f, ok := in[g.Exit]; ok {
		for ob := range f.(obFact) {
			note(ob, b.body.End())
		}
	}

	var diags []Diagnostic
	for ob, at := range leaks {
		diags = append(diags, Diagnostic{
			Analyzer: "resource-leak",
			Pos:      b.pkg.Fset.Position(ob.pos),
			Message: fmt.Sprintf("%s in %s is not released on every path (leaks at line %d)",
				ob.desc, r.fnName, b.pkg.Fset.Position(at).Line),
		})
	}
	return diags
}

func (p leakPolicy) node(r *obRun, st obFact, n ast.Node) obFact {
	st = p.calls(r, st, n)
	switch s := n.(type) {
	case *ast.AssignStmt:
		return r.assign(st, s)
	case *ast.DeclStmt:
		return r.valueSpecs(st, s)
	case *ast.ReturnStmt:
		return r.ret(st, s)
	case *ast.SendStmt:
		// ch <- conn: ownership crosses the channel.
		if ob := r.aliasOb(st, s.Value); ob != nil {
			st = p.discharge(r, st, ob)
		}
	}
	return st
}

// calls applies release/escape events from every call and closure in
// the node: closing methods, releasing callees (by summary), handoffs
// to code the analysis cannot see, and closure captures.
func (p leakPolicy) calls(r *obRun, st obFact, n ast.Node) obFact {
	ast.Inspect(n, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit:
			// A closure that can release or hand off an alias takes the
			// obligation out of this function's hands (defer/go cleanup
			// bodies). A closure that only invokes benign methods on it
			// (a deadline-restore func) does not.
			ast.Inspect(x.Body, func(inner ast.Node) bool {
				if id, ok := inner.(*ast.Ident); ok {
					if obj := r.pkg.Info.Uses[id]; obj != nil {
						if ob := r.obOfObj(st, obj); ob != nil && closureDisposes(r.pkg, x.Body, obj) {
							st = p.discharge(r, st, ob)
						}
					}
				}
				return true
			})
			return false
		case *ast.CallExpr:
			st = p.callEvent(r, st, x)
		}
		return true
	})
	return st
}

// callEvent applies one call's effect on the live obligations.
func (p leakPolicy) callEvent(r *obRun, st obFact, call *ast.CallExpr) obFact {
	fun := ast.Unparen(call.Fun)
	if tv, ok := r.pkg.Info.Types[fun]; ok && tv.IsType() {
		return st // conversion
	}

	// A call that never returns ends the process: no code after it runs
	// on this path, so its live obligations cannot leak.
	if noReturnCall(r.pkg, call) {
		return obFact{}
	}

	// Receiver: x.Close() / x.conn.Close() style releases, and module
	// methods whose summary releases their receiver.
	if x := methodRecv(r.pkg, call); x != nil {
		if ob := r.aliasOb(st, x); ob != nil {
			sum := r.sumOf(call)
			if closingName(fun.(*ast.SelectorExpr).Sel.Name) || (sum != nil && sum.RecvDone) {
				st = p.discharge(r, st, ob)
			}
		}
	}

	// Builtin append stores the value into a slice the caller owns.
	switch builtinName(r.pkg, call) {
	case "":
	case "append":
		for _, arg := range call.Args[min(1, len(call.Args)):] {
			if ob := r.aliasOb(st, arg); ob != nil {
				st = p.discharge(r, st, ob)
			}
		}
		return st
	default:
		return st
	}

	// Arguments.
	fn, sum := calleeOf(r.pkg, call), r.sumOf(call)
	for i, arg := range call.Args {
		// Passing a bound release method (st.onClose(conn.Close)) hands
		// the release capability to the callee: ownership transferred.
		if mv, ok := ast.Unparen(arg).(*ast.SelectorExpr); ok {
			if s, isSel := r.pkg.Info.Selections[mv]; isSel && s.Kind() == types.MethodVal && closingName(mv.Sel.Name) {
				if ob := r.aliasOb(st, mv.X); ob != nil {
					st = p.discharge(r, st, ob)
					continue
				}
			}
		}
		ob := r.aliasOb(st, arg)
		if ob == nil {
			continue
		}
		switch {
		case sum != nil:
			// Module callee with a computed summary: precise. A
			// pass-through parameter is NOT discharged here — the
			// assignment/return handling transfers the obligation onto
			// the result instead.
			if j := sum.argIndex(i); j >= 0 && sum.ParamDone[j] && !sum.ParamToReturn[j] {
				st = p.discharge(r, st, ob)
			}
		case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync" && fn.Name() == "Put":
			st = p.discharge(r, st, ob)
		default:
			// Standard library, interface dispatch, or a dynamic call:
			// conservatively assume the callee takes ownership.
			st = p.discharge(r, st, ob)
		}
	}
	return st
}

// edge kills obligations proven absent by a branch: on the edge where
// the acquisition's error is non-nil (the resource is nil), and on the
// edge where an alias itself compares equal to nil.
func (p leakPolicy) edge(r *obRun, st obFact, e cfg.Edge) obFact {
	if len(st) == 0 {
		return st
	}
	return p.refine(r, st, e.Cond, e.Val)
}

func (p leakPolicy) refine(r *obRun, st obFact, cond ast.Expr, val bool) obFact {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return p.refine(r, st, c.X, !val)
		}
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			if val {
				return p.refine(r, p.refine(r, st, c.X, true), c.Y, true)
			}
		case token.LOR:
			if !val {
				return p.refine(r, p.refine(r, st, c.X, false), c.Y, false)
			}
		case token.EQL, token.NEQ:
			obj, isNilCmp := nilComparand(r.pkg, c)
			if !isNilCmp || obj == nil {
				return st
			}
			if objIsNil := (c.Op == token.EQL) == val; objIsNil {
				// An alias proven nil carries nothing to release. No
				// summary note: checking nil is not releasing.
				for ob, info := range st {
					if info.aliases[obj] {
						out := st.clone()
						delete(out, ob)
						st = out
					}
				}
			} else {
				// obj is non-nil here; if it is an acquisition's paired
				// error, the resource itself is nil on this edge.
				for ob, info := range st {
					if info.errObj == obj {
						st = p.discharge(r, st, ob)
					}
				}
			}
			return st
		}
	}
	return st
}

// nilComparand extracts the non-nil side's object from `x == nil` /
// `x != nil`.
func nilComparand(pkg *Package, c *ast.BinaryExpr) (types.Object, bool) {
	isNil := func(e ast.Expr) bool {
		tv, ok := pkg.Info.Types[ast.Unparen(e)]
		return ok && tv.IsNil()
	}
	if isNil(c.Y) {
		return identObj(pkg, c.X), true
	}
	if isNil(c.X) {
		return identObj(pkg, c.Y), true
	}
	return nil, false
}

// discharge removes an obligation; in summary mode, discharging a
// parameter marker records that the function disposes of that
// argument.
func (leakPolicy) discharge(r *obRun, st obFact, ob *obligation) obFact {
	if r.sum != nil {
		if ob.recv {
			r.sum.RecvDone = true
		} else if ob.param >= 0 {
			r.sum.ParamDone[ob.param] = true
		}
	}
	if _, live := st[ob]; !live {
		return st
	}
	out := st.clone()
	delete(out, ob)
	return out
}

// acquire classifies a call as acquiring an owned resource: standard
// library dial/open/accept/pool-get calls, module functions whose
// summary hands a resource to the caller, and dynamic calls through
// function values whose declared result is a resource type (session
// factories stored in fields).
func (leakPolicy) acquire(r *obRun, st obFact, call *ast.CallExpr) (string, bool) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := r.pkg.Info.Types[fun]; ok && tv.IsType() {
		return "", false
	}
	if builtinName(r.pkg, call) != "" {
		return "", false
	}
	fn, path := stdCallee(r.pkg, call)
	if fn != nil {
		switch path {
		case "net":
			switch fn.Name() {
			case "Dial", "DialTimeout", "Listen", "ListenPacket", "FileConn",
				"Accept", "AcceptTCP", "AcceptUnix":
				return "net." + fn.Name() + " result", true
			}
		case "os":
			switch fn.Name() {
			case "Open", "Create", "OpenFile", "CreateTemp":
				return "os." + fn.Name() + " result", true
			}
		case "sync":
			if fn.Name() == "Get" {
				if named := recvNamed(r.pkg, call); named != nil && named.Obj().Name() == "Pool" {
					return "pool buffer", true
				}
			}
		}
		// A constructor's result is a fresh acquisition only when no
		// argument's obligation is being passed through instead.
		if sum := r.a.sums[fn]; sum != nil && sum.Returns != "" && r.callResultOb(st, call) == nil {
			return sum.Returns, true
		}
		return "", false
	}
	if t, _ := firstResultType(r.pkg, call); t != nil {
		if desc, ok := resourceDesc(t); ok {
			return desc + " (dynamic call)", true
		}
	}
	return "", false
}

// closureDisposes reports whether a function literal's body does
// anything with obj beyond calling non-closing methods on it: passing
// it to a call, storing it, returning it, or closing it all count as
// disposing of the obligation.
func closureDisposes(pkg *Package, body ast.Node, obj types.Object) bool {
	benign := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || closingName(sel.Sel.Name) {
			return true
		}
		ast.Inspect(sel.X, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				benign[id] = true
			}
			return true
		})
		return true
	})
	disposes := false
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || benign[id] {
			return true
		}
		if pkg.Info.Uses[id] == obj {
			disposes = true
		}
		return true
	})
	return disposes
}

// trackableParam reports whether a parameter's type can carry a
// release obligation worth summarizing: resource types themselves and
// whatever a pool hands out — byte slices and pointers
// (trackablePoolParam). Without the pointers, a callee that releases a
// pooled *T it is passed would never say so, and its callers would
// report the object leaked. Seeding anything else (ints, configs)
// creates phantom obligations that confuse alias transfer.
func trackableParam(t types.Type) bool {
	if _, ok := resourceDesc(t); ok || trackablePoolParam(t) {
		return true
	}
	// Unnamed interfaces with closing-ish methods (io.Closer and
	// friends) can hold a resource too.
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if closingName(iface.Method(i).Name()) {
				return true
			}
		}
	}
	return false
}

// resourceDesc classifies a type as an owned resource.
func resourceDesc(t types.Type) (string, bool) {
	switch tt := t.(type) {
	case *types.Pointer:
		n := namedType(tt.Elem())
		if n == nil || n.Obj().Pkg() == nil {
			return "", false
		}
		switch n.Obj().Pkg().Path() {
		case "os":
			if n.Obj().Name() == "File" {
				return "open file", true
			}
		case "net":
			return "network connection", true
		case "repro/internal/securechan":
			if n.Obj().Name() == "Conn" {
				return "secure channel", true
			}
		case "repro/internal/oncrpc":
			switch n.Obj().Name() {
			case "Client", "ReconnectClient":
				return "RPC client", true
			}
		}
	case *types.Named:
		o := tt.Obj()
		if o.Pkg() != nil && o.Pkg().Path() == "net" {
			switch o.Name() {
			case "Conn", "Listener", "PacketConn":
				return "network connection", true
			}
		}
	}
	return "", false
}

// closingName reports whether a method name is a release by
// convention, wherever it is defined.
func closingName(name string) bool {
	switch name {
	case "Close", "Shutdown", "Stop", "Release", "Put", "CloseRead", "CloseWrite", "Unmount":
		return true
	}
	return false
}
