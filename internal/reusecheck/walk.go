package reusecheck

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"reusetool/internal/depend"
	"reusetool/internal/ir"
	"reusetool/internal/symbolic"
)

// refFact is the walker's view of one reference site: its loop nest
// outermost first and the reachability/guard context it executes under.
// Its Let-substituted subscripts are the dependence analysis's
// (depend.Analysis.Subscripts).
type refFact struct {
	ref      *ir.Ref
	routine  *ir.Routine
	nest     []*ir.Loop // outermost first
	guarded  bool       // under an If: may not execute
	dead     bool       // inside provably unreachable code
	inBounds bool       // every subscript provably within the extent
}

// loopFact caches per-loop interval facts.
type loopFact struct {
	rng    symbolic.Interval // value range of the loop variable
	empty  bool              // provably zero-trip
	trips2 bool              // provably two or more iterations
}

// walker performs one abstract-interpretation pass over the structured
// IR. It carries a flow-sensitive interval environment: the abstract
// value of every parameter, loop variable and Let binding, refined on
// each branch. Symbolic region keys come from the dependence analysis,
// which does the one Let-substitution walk. Every name a loop body may
// rebind (depend.Rebound) is havocked to top at loop entry, which is the
// one-step widening that makes the pass a fixpoint in a single sweep.
// Every name a loop, branch or call may rebind is havocked again once
// it is done, since its value before the construct may be stale after.
type walker struct {
	info   *ir.Info
	deps   *depend.Analysis
	fileOf func(*ir.Routine) string
	params map[string]symbolic.Interval // every parameter no routine rebinds, as a point

	facts []*refFact // indexed by trace.RefID
	loops map[*ir.Loop]loopFact
	diags []Diagnostic
}

// walk runs the walker over every routine of a program whose
// dependence analysis is deps.
func walk(info *ir.Info, deps *depend.Analysis, fileOf func(*ir.Routine) string) *walker {
	w := &walker{
		info:   info,
		deps:   deps,
		fileOf: fileOf,
		params: make(map[string]symbolic.Interval, len(deps.Params)),
		facts:  make([]*refFact, len(info.Refs)),
		loops:  map[*ir.Loop]loopFact{},
	}
	// A routine may run after a caller rebound a parameter, so only
	// one that no routine rebinds starts at its bound value.
	for name := range deps.Params {
		if iv := deps.Param(name); iv.Bounded() {
			w.params[name] = iv
		}
	}
	for _, rt := range info.Prog.Routines {
		w.walkBody(rt, rt.Body, nil, maps.Clone(w.params), false, false, newPending())
	}
	return w
}

// havoc forgets the values of names: each evaluates to top.
func havoc(env map[string]symbolic.Interval, names map[string]bool) {
	for name := range names {
		delete(env, name)
	}
}

// pendingStore is a store whose value has not yet been observed.
type pendingStore struct {
	ref  *ir.Ref
	subs []ir.Expr
}

// pending tracks unobserved stores per array within one straight-line
// body. Each loop body and If branch gets a fresh instance, so every
// store in one instance shares the same guard context by construction.
type pending struct {
	byArray map[*ir.Array]map[string]*pendingStore
}

func newPending() *pending {
	return &pending{byArray: map[*ir.Array]map[string]*pendingStore{}}
}

func (p *pending) put(arr *ir.Array, key string, ps *pendingStore) {
	m := p.byArray[arr]
	if m == nil {
		m = map[string]*pendingStore{}
		p.byArray[arr] = m
	}
	m[key] = ps
}

func (p *pending) get(arr *ir.Array, key string) *pendingStore {
	return p.byArray[arr][key]
}

// killArray drops all pending stores to one array (it was read).
func (p *pending) killArray(arr *ir.Array) { delete(p.byArray, arr) }

// killAll drops everything (an opaque call may read anything).
func (p *pending) killAll() { p.byArray = map[*ir.Array]map[string]*pendingStore{} }

// killNames drops the stores whose subscripts read one of names: once a
// name is rebound, the same subscript text may denote another element.
func (p *pending) killNames(names map[string]bool) {
	for _, m := range p.byArray {
		for key, ps := range m {
			for name := range names {
				if !subsInvariant(ps.subs, name) {
					delete(m, key)
					break
				}
			}
		}
	}
}

// regionKey renders substituted subscripts as the canonical identity of
// the written region within one body.
func regionKey(subs []ir.Expr) string {
	parts := make([]string, len(subs))
	for i, s := range subs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

func (w *walker) walkBody(rt *ir.Routine, body []ir.Stmt, nest []*ir.Loop,
	env map[string]symbolic.Interval, guarded, dead bool, pend *pending) {

	for _, s := range body {
		switch st := s.(type) {
		case *ir.Let:
			w.killExprReads(pend, st.E)
			env[st.Var.Name] = evalIval(st.E, env)
			pend.killNames(map[string]bool{st.Var.Name: true})

		case *ir.Loop:
			w.killExprReads(pend, st.Lo)
			w.killExprReads(pend, st.Hi)
			w.walkLoop(rt, st, nest, env, guarded, dead, pend)

		case *ir.If:
			w.killExprReads(pend, st.Cond.L)
			w.killExprReads(pend, st.Cond.R)
			l := evalIval(st.Cond.L, env)
			r := evalIval(st.Cond.R, env)
			verdict := condDecide(st.Cond.Op, l, r)
			if verdict != 0 && !dead {
				w.reportDeadGuard(rt, st, verdict)
			}
			thenEnv := maps.Clone(refine(env, st.Cond, false))
			elseEnv := maps.Clone(refine(env, st.Cond, true))
			w.walkBody(rt, st.Then, nest, thenEnv, true, dead || verdict < 0, newPending())
			w.walkBody(rt, st.Else, nest, elseEnv, true, dead || verdict > 0, newPending())
			rebound := depend.Rebound(st.Then, st.Else)
			havoc(env, rebound)
			pend.killNames(rebound)
			for arr := range bodyReads(st.Then) {
				pend.killArray(arr)
			}
			for arr := range bodyReads(st.Else) {
				pend.killArray(arr)
			}

		case *ir.Access:
			for _, ref := range st.Refs {
				for _, idx := range ref.Index {
					w.killExprReads(pend, idx)
				}
				w.recordRef(rt, ref, nest, env, guarded, dead)
				if ref.Write {
					if !dead {
						subs := w.deps.Subscripts(ref.ID())
						key := regionKey(subs)
						if prev := pend.get(ref.Array, key); prev != nil {
							w.reportDeadStore(rt, prev.ref, ref)
						}
						pend.put(ref.Array, key, &pendingStore{ref: ref, subs: subs})
					}
				} else {
					pend.killArray(ref.Array)
				}
			}

		case *ir.Call:
			pend.killAll()
			havoc(env, depend.Rebound([]ir.Stmt{st}))
		}
	}
}

func (w *walker) walkLoop(rt *ir.Routine, l *ir.Loop, nest []*ir.Loop,
	env map[string]symbolic.Interval, guarded, dead bool, pend *pending) {

	step := loopStep(l)
	ivLo := evalIval(l.Lo, env)
	ivHi := evalIval(l.Hi, env)
	rng, empty := symbolic.LoopRange(ivLo, ivHi, step)
	var trips2 bool
	if step > 0 {
		trips2 = ivLo.HiOK && ivHi.LoOK && ivHi.Lo >= ivLo.Hi+step
	} else {
		trips2 = ivLo.LoOK && ivHi.HiOK && ivHi.Hi <= ivLo.Lo+step
	}
	w.loops[l] = loopFact{rng: rng, empty: empty, trips2: trips2}

	// Widen by havoc: names the body rebinds are unknown at entry to
	// any iteration after the first, and after the loop.
	rebound := depend.Rebound(l.Body)
	rebound[l.Var.Name] = true
	inner := maps.Clone(env)
	havoc(inner, rebound)
	inner[l.Var.Name] = rng

	bodyPend := newPending()
	w.walkBody(rt, l.Body, append(nest, l), inner, guarded, dead || empty, bodyPend)
	havoc(env, rebound)

	// Cross-iteration dead stores: a store that survives the body with a
	// location independent of the loop variable is overwritten by the
	// next iteration — dead unless something inside the body reads the
	// array (reads before the store observe the previous iteration).
	reads := bodyReads(l.Body)
	if !dead && !empty && trips2 {
		var dying []*pendingStore
		for arr, m := range bodyPend.byArray {
			if reads[arr] {
				continue
			}
			for _, ps := range m {
				if subsInvariant(ps.subs, l.Var.Name) {
					dying = append(dying, ps)
				}
			}
		}
		sort.Slice(dying, func(i, j int) bool { return dying[i].ref.ID() < dying[j].ref.ID() })
		for _, ps := range dying {
			w.diags = append(w.diags, Diagnostic{
				File:     w.fileOf(rt),
				Line:     ps.ref.Line,
				Code:     "dead-store",
				Severity: SevDefect,
				Msg: fmt.Sprintf("store %s does not depend on loop %s and is overwritten by the next iteration before any read",
					ps.ref.Name(), l.Var.Name),
				Hint: fmt.Sprintf("move the store out of the %s loop", l.Var.Name),
			})
		}
	}

	for arr := range reads {
		pend.killArray(arr)
	}
	pend.killNames(rebound)
}

// recordRef registers a reference fact and decides bounds provability.
func (w *walker) recordRef(rt *ir.Routine, ref *ir.Ref, nest []*ir.Loop,
	env map[string]symbolic.Interval, guarded, dead bool) {

	fact := &refFact{
		ref:     ref,
		routine: rt,
		nest:    slices.Clone(nest),
		guarded: guarded,
		dead:    dead,
	}
	if len(ref.Index) > 0 {
		fact.inBounds = true
		for d, idx := range ref.Index {
			iv := evalIval(idx, env)
			ext, ok := w.deps.Extent(ref.Array, d)
			if !ok || !iv.Bounded() || iv.Lo < 0 || iv.Hi > ext-1 {
				fact.inBounds = false
				break
			}
		}
	}
	w.facts[ref.ID()] = fact
}

func (w *walker) reportDeadStore(rt *ir.Routine, prev, next *ir.Ref) {
	w.diags = append(w.diags, Diagnostic{
		File:     w.fileOf(rt),
		Line:     prev.Line,
		Code:     "dead-store",
		Severity: SevDefect,
		Msg: fmt.Sprintf("store %s is overwritten at line %d before any read",
			prev.Name(), next.Line),
		Hint: "delete the first store or use its value",
	})
}

func (w *walker) reportDeadGuard(rt *ir.Routine, st *ir.If, verdict int) {
	line := condLine(st)
	var msg, hint string
	if verdict > 0 {
		if len(st.Else) > 0 {
			msg = fmt.Sprintf("condition %s always holds; the else branch never executes", st.Cond)
			hint = "delete the else branch"
		} else {
			msg = fmt.Sprintf("condition %s always holds; the guard is redundant", st.Cond)
			hint = "remove the guard"
		}
	} else {
		msg = fmt.Sprintf("condition %s never holds; the guarded block never executes", st.Cond)
		hint = "delete the dead branch or fix the condition"
	}
	w.diags = append(w.diags, Diagnostic{
		File:     w.fileOf(rt),
		Line:     line,
		Code:     "dead-guard",
		Severity: SevDefect,
		Msg:      msg,
		Hint:     hint,
	})
}

// condLine finds a source position for an If, which carries none
// itself: the first positioned expression in the condition, else the
// first positioned statement of either branch.
func condLine(st *ir.If) int {
	line := 0
	probe := func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if line != 0 {
				return
			}
			switch n := x.(type) {
			case *ir.Bin:
				if n.Line != 0 {
					line = n.Line
				}
			case *ir.Load:
				if n.Line != 0 {
					line = n.Line
				}
			}
		})
	}
	probe(st.Cond.L)
	probe(st.Cond.R)
	if line == 0 {
		line = firstLine(st.Then)
	}
	if line == 0 {
		line = firstLine(st.Else)
	}
	return line
}

func firstLine(body []ir.Stmt) int {
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Loop:
			if st.Line != 0 {
				return st.Line
			}
			if l := firstLine(st.Body); l != 0 {
				return l
			}
		case *ir.Let:
			if st.Line != 0 {
				return st.Line
			}
		case *ir.If:
			if l := condLine(st); l != 0 {
				return l
			}
		case *ir.Access:
			for _, r := range st.Refs {
				if r.Line != 0 {
					return r.Line
				}
			}
		}
	}
	return 0
}

// killExprReads drops pending stores to every array an expression reads
// through an indirection.
func (w *walker) killExprReads(pend *pending, e ir.Expr) {
	ir.WalkExpr(e, func(x ir.Expr) {
		if ld, ok := x.(*ir.Load); ok {
			pend.killArray(ld.Array)
		}
	})
}

// bodyReads collects every array a body may read: read references and
// Load indirections anywhere inside, including guarded code and nested
// loops.
func bodyReads(body []ir.Stmt) map[*ir.Array]bool {
	out := map[*ir.Array]bool{}
	var collectExpr func(e ir.Expr)
	collectExpr = func(e ir.Expr) {
		ir.WalkExpr(e, func(x ir.Expr) {
			if ld, ok := x.(*ir.Load); ok {
				out[ld.Array] = true
			}
		})
	}
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ir.Loop:
				collectExpr(st.Lo)
				collectExpr(st.Hi)
				walk(st.Body)
			case *ir.Let:
				collectExpr(st.E)
			case *ir.If:
				collectExpr(st.Cond.L)
				collectExpr(st.Cond.R)
				walk(st.Then)
				walk(st.Else)
			case *ir.Access:
				for _, r := range st.Refs {
					for _, idx := range r.Index {
						collectExpr(idx)
					}
					if !r.Write {
						out[r.Array] = true
					}
				}
			case *ir.Call:
				if st.Callee != nil {
					walk(st.Callee.Body)
				}
			}
		}
	}
	walk(body)
	return out
}

// subsInvariant reports whether no subscript mentions a variable.
func subsInvariant(subs []ir.Expr, name string) bool {
	for _, s := range subs {
		if ir.Mentions(s, name) {
			return false
		}
	}
	return true
}
