package vet

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/vet/cfg"
)

// The deep-summary engine computes, for every module function under a
// given taint policy, how values flow through it — fresh sources out,
// parameters to return values, parameters to sinks — by seeding each
// parameter with a marker source and observing where the markers
// surface. Summaries are computed by Module.bottomUp; the summary
// lattice only gains bits (ParamToReturn flags set, sink strings fill
// in once) and is finite, so the fixpoint terminates.

// markerPrefix tags the engine's synthetic parameter sources; \x00
// cannot occur in a real source description.
const markerPrefix = "\x00"

const recvMarker = markerPrefix + "recv"

func paramMarker(i int) string { return markerPrefix + "param:" + strconv.Itoa(i) }

// markerOf decodes a marker description: the parameter index, or
// isRecv for the receiver marker.
func markerOf(desc string) (i int, isRecv, ok bool) {
	rest, found := strings.CutPrefix(desc, markerPrefix)
	if !found {
		return 0, false, false
	}
	if rest == "recv" {
		return 0, true, true
	}
	rest, found = strings.CutPrefix(rest, "param:")
	if !found {
		return 0, false, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false, false
	}
	return n, false, true
}

// markerSeed taints every parameter and the receiver of sig with its
// marker source.
func markerSeed(sig *types.Signature) cfg.State {
	seed := cfg.State{}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if p := params.At(i); p != nil {
			seed[p] = &cfg.Source{Pos: p.Pos(), Desc: paramMarker(i)}
		}
	}
	if r := sig.Recv(); r != nil {
		seed[r] = &cfg.Source{Pos: r.Pos(), Desc: recvMarker}
	}
	return seed
}

// argIndex clamps a call-argument index to one of a callee's params
// parameters, folding extra variadic arguments onto the last one;
// -1 when the argument matches no parameter.
func argIndex(params int, variadic bool, i int) int {
	if i < params {
		return i
	}
	if variadic && params > 0 {
		return params - 1
	}
	return -1
}

// fnSummary is one function's flow behavior under one policy.
type fnSummary struct {
	// ReturnDesc, when non-empty, says the function can return a value
	// tainted by a policy source regardless of its inputs.
	ReturnDesc string
	// ParamToReturn[i]: argument i's taint can flow to a return value.
	ParamToReturn []bool
	// RecvToReturn: the receiver's taint can flow to a return value.
	RecvToReturn bool
	// ParamToSink[i]: argument i reaches the named sink ("" = none),
	// possibly through further calls.
	ParamToSink []string
	// RecvToSink: the receiver reaches the named sink ("" = none).
	RecvToSink string

	variadic bool
}

func newFnSummary(sig *types.Signature) *fnSummary {
	n := sig.Params().Len()
	return &fnSummary{
		ParamToReturn: make([]bool, n),
		ParamToSink:   make([]string, n),
		variadic:      sig.Variadic(),
	}
}

func (s *fnSummary) clone() *fnSummary {
	c := *s
	c.ParamToReturn = append([]bool(nil), s.ParamToReturn...)
	c.ParamToSink = append([]string(nil), s.ParamToSink...)
	return &c
}

func (s *fnSummary) equal(o *fnSummary) bool {
	if o == nil {
		return false
	}
	if s.ReturnDesc != o.ReturnDesc || s.RecvToReturn != o.RecvToReturn || s.RecvToSink != o.RecvToSink {
		return false
	}
	for i := range s.ParamToReturn {
		if s.ParamToReturn[i] != o.ParamToReturn[i] || s.ParamToSink[i] != o.ParamToSink[i] {
			return false
		}
	}
	return true
}

func (s *fnSummary) returnsArg(i int) bool {
	j := argIndex(len(s.ParamToReturn), s.variadic, i)
	return j >= 0 && s.ParamToReturn[j]
}

func (s *fnSummary) sinkForArg(i int) string {
	j := argIndex(len(s.ParamToSink), s.variadic, i)
	if j < 0 {
		return ""
	}
	return s.ParamToSink[j]
}

// noteReturn records that src reached a return value: markers set the
// corresponding pass-through bit, real sources set ReturnDesc.
func (s *fnSummary) noteReturn(src *cfg.Source) {
	if i, isRecv, ok := markerOf(src.Desc); ok {
		if isRecv {
			s.RecvToReturn = true
		} else if i < len(s.ParamToReturn) {
			s.ParamToReturn[i] = true
		}
		return
	}
	if s.ReturnDesc == "" {
		s.ReturnDesc = src.Desc
	}
}

// noteSink records that src reached the named sink; only markers
// matter here — real-source flows are re-discovered (and reported) by
// the analyzer's reporting pass.
func (s *fnSummary) noteSink(src *cfg.Source, what string) {
	i, isRecv, ok := markerOf(src.Desc)
	if !ok {
		return
	}
	if isRecv {
		if s.RecvToSink == "" {
			s.RecvToSink = what
		}
		return
	}
	if i < len(s.ParamToSink) && s.ParamToSink[i] == "" {
		s.ParamToSink[i] = what
	}
}

// summaryPolicy configures the engine for one analyzer.
type summaryPolicy struct {
	// mkSpec builds the base per-package spec: Info, SourceOf,
	// SourceArg, BoundSanitizer. Seed, CallTaint, FieldTaint and Sink
	// are owned by the engine.
	mkSpec func(pkg *Package) *cfg.Spec
	// sinkOf classifies a call as a direct policy sink: the index of
	// the first sink argument (0 = every argument) and a description,
	// or -1 when the call is not a sink.
	sinkOf func(pkg *Package, call *ast.CallExpr) (int, string)
	// callTaint, when non-nil, models calls the summaries cannot see
	// (standard-library special cases); it runs before summary lookup.
	callTaint func(pkg *Package, call *ast.CallExpr, recv *cfg.Source, args []*cfg.Source) *cfg.Source
	// resultOK, when non-nil, gates summary-derived call taint on the
	// call's (first) result type. Without it a getter like DN() string
	// on a key-holding receiver would launder "the receiver contains a
	// secret" into "this string is a secret" and flood every log line
	// downstream of a constructor.
	resultOK func(t types.Type) bool
	// cutFieldProjection, when true, drops container-level taint at
	// every struct-field projection: reading fs.ExportPath out of a
	// value that holds a key somewhere does not extract the key. Safe
	// when the policy's SourceOf re-taints the genuinely secret fields
	// (typed key fields, named secret fields) at the projection itself.
	cutFieldProjection bool
}

// summarySet holds the per-function summaries computed for one policy.
type summarySet struct {
	pol summaryPolicy
	fns map[*types.Func]*fnSummary
}

// emptySummaries disables interprocedural reasoning: the reporting
// pass sees only the policy's std-library call model. Used by the
// regression tests that pin what intraprocedural analysis misses.
func emptySummaries(pol summaryPolicy) *summarySet {
	return &summarySet{pol: pol, fns: make(map[*types.Func]*fnSummary)}
}

// computeSummaries runs the bottom-up fixpoint over m's call graph.
func computeSummaries(m *Module, pol summaryPolicy) *summarySet {
	ss := emptySummaries(pol)
	m.bottomUp(func(fd *funcDecl) bool { return ss.summarize(m, fd) })
	return ss
}

// summarize recomputes fd's summary against the current state of every
// other summary and reports whether it changed.
func (ss *summarySet) summarize(m *Module, fd *funcDecl) bool {
	sig := fd.fn.Type().(*types.Signature)
	old := ss.fns[fd.fn]
	var cur *fnSummary
	if old != nil {
		cur = old.clone()
	} else {
		cur = newFnSummary(sig)
	}

	pkg := fd.pkg
	spec := ss.pol.mkSpec(pkg)
	spec.Seed = markerSeed(sig)
	spec.CallTaint = ss.callTaintFor(pkg)
	spec.FieldTaint = ss.fieldTaintFor(pkg)
	spec.Sink = func(n ast.Node, taintOf func(ast.Expr) *cfg.Source) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				for _, src := range allTaints(r, taintOf) {
					cur.noteReturn(src)
				}
			}
		}
		cfg.Inspect(n, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				ss.forCallSinks(pkg, call, taintOf, func(src *cfg.Source, what string) {
					cur.noteSink(src, what)
				})
			}
			return true
		})
	}
	cfg.Run(m.cfgOf(fd.decl.Body), spec)

	if cur.equal(old) {
		return false
	}
	ss.fns[fd.fn] = cur
	return true
}

// callTaintFor is the deep-summary CallTaint hook: consult the
// (possibly still converging) summary of the statically resolved
// callee. A fresh-source return wins over argument pass-through; both
// reduce to the same verdict for the caller's callers.
func (ss *summarySet) callTaintFor(pkg *Package) func(*ast.CallExpr, *cfg.Source, []*cfg.Source) *cfg.Source {
	return func(call *ast.CallExpr, recv *cfg.Source, args []*cfg.Source) *cfg.Source {
		if ss.pol.callTaint != nil {
			if src := ss.pol.callTaint(pkg, call, recv, args); src != nil {
				return src
			}
		}
		callee := calleeOf(pkg, call)
		if callee == nil {
			return nil
		}
		sum := ss.fns[callee]
		if sum == nil {
			return nil
		}
		if ss.pol.resultOK != nil {
			if t, found := firstResultType(pkg, call); found && (t == nil || !ss.pol.resultOK(t)) {
				return nil
			}
		}
		if sum.ReturnDesc != "" {
			return &cfg.Source{Pos: call.Pos(), Desc: sum.ReturnDesc}
		}
		if sum.RecvToReturn && recv != nil {
			return recv
		}
		for i, a := range args {
			if a != nil && sum.returnsArg(i) {
				return a
			}
		}
		return nil
	}
}

// fieldTaintFor applies the policy's result-type cut to field reads:
// projecting a presentable field (a string path, a counter) out of a
// tainted container is not extracting the tainted payload itself.
// Fields that hold the payload directly (key structs, byte slices)
// pass resultOK and keep the container's taint.
func (ss *summarySet) fieldTaintFor(pkg *Package) func(sel *ast.SelectorExpr, src *cfg.Source) *cfg.Source {
	if ss.pol.cutFieldProjection {
		return func(sel *ast.SelectorExpr, src *cfg.Source) *cfg.Source { return nil }
	}
	if ss.pol.resultOK == nil {
		return nil
	}
	return func(sel *ast.SelectorExpr, src *cfg.Source) *cfg.Source {
		if tv, ok := pkg.Info.Types[sel]; ok && !ss.pol.resultOK(tv.Type) {
			return nil
		}
		return src
	}
}

// forCallSinks reports at most one policy-sink flow at call: a direct
// sink (sinkOf) or a call into a module function whose summary says an
// argument or the receiver reaches a sink.
func (ss *summarySet) forCallSinks(pkg *Package, call *ast.CallExpr, taintOf func(ast.Expr) *cfg.Source, report func(src *cfg.Source, what string)) {
	if start, what := ss.pol.sinkOf(pkg, call); start >= 0 && start <= len(call.Args) {
		for _, arg := range call.Args[start:] {
			if src := taintOf(arg); src != nil {
				report(src, what)
				return
			}
		}
	}
	callee := calleeOf(pkg, call)
	if callee == nil {
		return
	}
	sum := ss.fns[callee]
	if sum == nil {
		return
	}
	if x := methodRecv(pkg, call); x != nil && sum.RecvToSink != "" {
		if src := taintOf(x); src != nil {
			report(src, sum.RecvToSink)
			return
		}
	}
	for i, arg := range call.Args {
		what := sum.sinkForArg(i)
		if what == "" {
			continue
		}
		if src := taintOf(arg); src != nil {
			report(src, what)
			return
		}
	}
}

// allTaints evaluates the taint of e and of the subexpressions that
// feed its value, so a return mixing several flows (parameter markers
// and real sources) reports each one rather than only the first found.
// The walk stops at call boundaries: what escapes a call is decided by
// taintOf on the call itself (CallTaint / summaries), not by its
// arguments — SignASN1(rand, key, digest) returns a signature, not the
// key.
func allTaints(e ast.Expr, taintOf func(ast.Expr) *cfg.Source) []*cfg.Source {
	var out []*cfg.Source
	seen := make(map[string]bool)
	var walk func(x ast.Expr)
	add := func(x ast.Expr) {
		if src := taintOf(x); src != nil && !seen[src.Desc] {
			seen[src.Desc] = true
			out = append(out, src)
		}
	}
	walk = func(x ast.Expr) {
		if x == nil {
			return
		}
		add(x)
		switch t := x.(type) {
		case *ast.ParenExpr:
			walk(t.X)
		case *ast.BinaryExpr:
			walk(t.X)
			walk(t.Y)
		case *ast.UnaryExpr:
			walk(t.X)
		case *ast.StarExpr:
			walk(t.X)
		case *ast.IndexExpr:
			walk(t.X)
		case *ast.SliceExpr:
			walk(t.X)
		case *ast.TypeAssertExpr:
			walk(t.X)
		case *ast.CompositeLit:
			for _, el := range t.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				walk(el)
			}
		}
	}
	walk(e)
	return out
}

// reportDeepFlows is the shared reporting pass: re-analyze every
// function body (literals included) with real sources — plus seed,
// when non-nil, applied to every function (unbounded-alloc's
// wire-filled fields) — flagging flows into direct sinks and into
// summarized sink-reaching calls. format builds the diagnostic message
// from the flow's source, the sink description, and the enclosing
// declaration's name.
func reportDeepFlows(m *Module, ss *summarySet, analyzer string, seed cfg.State, format func(src *cfg.Source, what, fn string) string) []Diagnostic {
	var diags []Diagnostic
	ss.analyze(m, seed, func(b funcBody, n ast.Node, taintOf func(ast.Expr) *cfg.Source) {
		cfg.Inspect(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			ss.forCallSinks(b.pkg, call, taintOf, func(src *cfg.Source, what string) {
				diags = append(diags, Diagnostic{
					Analyzer: analyzer,
					Pos:      b.pkg.Fset.Position(call.Pos()),
					Message:  format(src, what, b.decl.Name.Name),
				})
			})
			return true
		})
	})
	return diags
}

// analyze runs the policy's taint analysis over every function body
// (literals included), with the summaries as its call model and seed
// (nil-able) tainted at entry, and hands every reachable node to sink
// with the taint state in force before it.
func (ss *summarySet) analyze(m *Module, seed cfg.State, sink func(b funcBody, n ast.Node, taintOf func(ast.Expr) *cfg.Source)) {
	for _, b := range m.bodies {
		spec := ss.pol.mkSpec(b.pkg)
		spec.Seed = seed
		spec.CallTaint = ss.callTaintFor(b.pkg)
		spec.FieldTaint = ss.fieldTaintFor(b.pkg)
		spec.Sink = func(n ast.Node, taintOf func(ast.Expr) *cfg.Source) { sink(b, n, taintOf) }
		cfg.Run(m.cfgOf(b.body), spec)
	}
}
