// Package depend implements symbolic data-dependence analysis over the
// IR: for every pair of references on the same array it decides whether
// two dynamic instances can touch the same element, and if so, with
// which direction vectors over their common loop nest.
//
// The tests are the classical ones — ZIV, strong SIV with forced
// distances, a lattice-normalized GCD test, and Banerjee-style bounds
// (computed exactly by vertex enumeration of the per-loop instance
// region) — applied to the affine subscript forms recovered by
// internal/symbolic. Non-affine or indirect subscripts, and subscripts
// over variables the analyzer cannot resolve, yield a conservative
// Unknown dependence rather than a verdict.
//
// Directions are defined in iteration order (DirLT: the destination
// instance runs in a later iteration of the loop), which for
// negative-step loops means smaller variable values. Positions that no
// subscript constrains are reported as DirAny: every direction is
// feasible there.
//
// Two consumers sit on top: legality.go answers "is this Table I
// transformation legal here?" for internal/advise, and facts.go exports
// the per-reference and per-loop facts the internal/reusecheck static
// checker builds its diagnostics from.
package depend

import (
	"fmt"
	"maps"
	"sort"
	"strings"

	"reusetool/internal/ir"
	"reusetool/internal/symbolic"
	"reusetool/internal/trace"
)

// Dir is a dependence direction for one loop, in iteration order.
type Dir uint8

// Directions. DirAny marks a loop position that no subscript pair
// constrains: all three concrete directions are feasible.
const (
	DirLT Dir = iota // destination instance in a later iteration
	DirEQ            // same iteration
	DirGT            // destination instance in an earlier iteration
	DirAny
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	switch d {
	case DirLT:
		return "<"
	case DirEQ:
		return "="
	case DirGT:
		return ">"
	case DirAny:
		return "*"
	}
	return "?"
}

// Vector is one feasible direction vector over a dependence's loops,
// outermost first. Dist[i] is the constant iteration distance at
// position i when Known[i] is set.
type Vector struct {
	Dirs  []Dir
	Dist  []int64
	Known []bool
}

// String renders the vector like "(<,=,*)".
func (v Vector) String() string {
	parts := make([]string, len(v.Dirs))
	for i, d := range v.Dirs {
		parts[i] = d.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Kind classifies a dependence by the access modes of its endpoints.
type Kind uint8

// Dependence kinds. Src is always the lower-numbered reference; Flow
// means Src writes and Dst reads. Input dependences (both reads) never
// constrain legality but are kept for reuse-coverage queries.
const (
	Flow Kind = iota
	Anti
	Output
	Input
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Input:
		return "input"
	}
	return "?"
}

// Dep is a dependence between two references. Loops are the common
// enclosing loops, outermost first; every Vector has one direction per
// loop. Vectors list all feasible sign patterns of the x→y instance
// equation: a vector whose leading concrete direction is '>' denotes
// the mirrored dependence Dst→Src. When Unknown is set the analyzer
// could not decide the pair (Reason says why) and no Vectors are given.
type Dep struct {
	Src, Dst *ir.Ref
	Kind     Kind
	Loops    []*ir.Loop
	Vectors  []Vector
	Unknown  bool
	Reason   string
	// SiblingOK is set when the subscripts force a constant iteration
	// offset between the two sides' own (non-common) loops — e.g. the
	// separate i sweeps of a two-pass stencil. SiblingDist is then the
	// largest such offset in magnitude; time skewing uses it.
	SiblingOK   bool
	SiblingDist int64
}

// String renders the dependence for diagnostics.
func (d *Dep) String() string {
	if d.Unknown {
		return fmt.Sprintf("%s %s -> %s unknown: %s", d.Kind, d.Src.Name(), d.Dst.Name(), d.Reason)
	}
	vs := make([]string, len(d.Vectors))
	for i, v := range d.Vectors {
		vs[i] = v.String()
	}
	return fmt.Sprintf("%s %s -> %s %s", d.Kind, d.Src.Name(), d.Dst.Name(), strings.Join(vs, " "))
}

// refInfo is the analyzer's view of one reference: its loop nest
// outermost first and its subscripts with Let bindings substituted.
type refInfo struct {
	ref     *ir.Ref
	routine *ir.Routine
	loops   []*ir.Loop
	subs    []ir.Expr
	guarded bool // under an If: may not execute
	// stale names an enclosing loop's variable that a subscript reads
	// after a nested loop, Let, branch or call may have rebound it; the
	// value is then not the loop's own, and the pair is Unknown.
	stale string
}

// loopInfo caches per-loop facts: substituted bounds, the value range
// of the variable, and whether the lower bound is a compile-time
// constant (then all instances share the lattice lo + step·Z).
type loopInfo struct {
	loop      *ir.Loop
	routine   *ir.Routine
	lo, hi    ir.Expr
	step      int64
	rng       symbolic.Interval
	empty     bool // provably zero-trip for every execution
	guarded   bool
	loConst   int64
	loConstOK bool
}

// Analysis holds the dependence results for one finalized program.
type Analysis struct {
	Info *ir.Info
	// Params holds every parameter's bound value, as the interpreter's
	// layout sees it; rebound ones included.
	Params map[string]int64
	// Deps lists all dependences between reference pairs (Src.ID <=
	// Dst.ID), sorted by endpoint IDs.
	Deps []*Dep

	// rebound holds the parameters some routine rebinds (a loop over
	// one, a Let). Where a subscript or a loop bound reads one, it need
	// not hold its bound value, so Param never reads it as one.
	rebound map[string]bool
	refs    map[trace.RefID]*refInfo
	loops   map[*ir.Loop]*loopInfo
	pairs   map[[2]trace.RefID]*Dep
}

// Analyze runs dependence analysis on a finalized program. params
// overrides the program's default parameter values (as core.Options
// does for the interpreter), so verdicts match the analyzed run.
func Analyze(info *ir.Info, params map[string]int64) *Analysis {
	a := &Analysis{
		Info:   info,
		Params: map[string]int64{},
		refs:   map[trace.RefID]*refInfo{},
		loops:  map[*ir.Loop]*loopInfo{},
		pairs:  map[[2]trace.RefID]*Dep{},
	}
	for k, v := range info.Prog.Defaults {
		a.Params[k] = v
	}
	for k, v := range params {
		a.Params[k] = v
	}
	bodies := make([][]ir.Stmt, len(info.Prog.Routines))
	for i, rt := range info.Prog.Routines {
		bodies[i] = rt.Body
	}
	a.rebound = Rebound(bodies...)
	maps.DeleteFunc(a.rebound, func(name string, _ bool) bool {
		_, ok := a.Params[name]
		return !ok
	})
	for _, rt := range info.Prog.Routines {
		a.walk(rt, rt.Body, nil, map[string]ir.Expr{}, map[string]bool{}, false)
	}
	a.pairAll()
	return a
}

// Pair returns the dependence between two references (either order),
// or nil when they are provably independent.
func (a *Analysis) Pair(r1, r2 trace.RefID) *Dep {
	if r1 > r2 {
		r1, r2 = r2, r1
	}
	return a.pairs[[2]trace.RefID{r1, r2}]
}

// Covers reports whether a same-address access pair observed between
// the two references (within one invocation of their routines) is
// explained by a reported dependence: the soundness contract the
// differential tests exercise.
func (a *Analysis) Covers(r1, r2 trace.RefID) bool {
	d := a.Pair(r1, r2)
	return d != nil && (d.Unknown || len(d.Vectors) > 0)
}

// walk collects refInfo/loopInfo for one routine. env carries Let
// bindings that are still valid at the current program point. A name a
// nested body may rebind is forgotten, together with every binding that
// mentions it, so a substituted expression is always exact. stale holds
// the enclosing loops' variables that may no longer hold their loop's
// value here: an expression that still reads one after substitution
// does not vary with that loop.
func (a *Analysis) walk(rt *ir.Routine, body []ir.Stmt, loops []*ir.Loop, env map[string]ir.Expr, stale map[string]bool, guarded bool) {
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Loop:
			lo := substExpr(st.Lo, env)
			hi := substExpr(st.Hi, env)
			step := int64(st.Step.(ir.Const))
			li := &loopInfo{loop: st, routine: rt, lo: lo, hi: hi, step: step, guarded: guarded}
			res := a.resolver(loops, stale)
			li.rng, li.empty = symbolic.LoopRange(symbolic.EvalInterval(lo, res), symbolic.EvalInterval(hi, res), step)
			li.loConst, li.loConstOK = symbolic.EvalInterval(lo, a.Param).Const()
			a.loops[st] = li
			// Bindings rebound inside the body change across
			// iterations, and their values are stale once the loop
			// ran: forget them (and the loop variable) on both sides.
			// An enclosing loop variable the body rebinds is stale in
			// the whole body from its second iteration on; the loop's
			// own variable is fresh at the top of every iteration.
			killed := Rebound(st.Body)
			inner := maps.Clone(stale)
			markStale(inner, killed, loops)
			delete(inner, st.Var.Name)
			killed[st.Var.Name] = true
			forget(env, killed)
			a.walk(rt, st.Body, append(loops, st), env, inner, guarded)
			forget(env, killed)
			markStale(stale, killed, loops)
		case *ir.Let:
			e := substExpr(st.E, env)
			name := map[string]bool{st.Var.Name: true}
			forget(env, name)
			markStale(stale, name, loops)
			if !ir.Mentions(e, st.Var.Name) {
				// A self-referential rebinding (accumulator) stays
				// opaque from here on.
				env[st.Var.Name] = e
			}
		case *ir.If:
			// Each branch sees a private copy so one branch's
			// bindings cannot leak into the other; afterwards any
			// name either branch bound is ambiguous.
			a.walk(rt, st.Then, loops, maps.Clone(env), maps.Clone(stale), true)
			a.walk(rt, st.Else, loops, maps.Clone(env), maps.Clone(stale), true)
			rebound := Rebound(st.Then, st.Else)
			forget(env, rebound)
			markStale(stale, rebound, loops)
		case *ir.Access:
			for _, ref := range st.Refs {
				ri := &refInfo{
					ref:     ref,
					routine: rt,
					loops:   append([]*ir.Loop(nil), loops...),
					subs:    make([]ir.Expr, len(ref.Index)),
					guarded: guarded,
				}
				for i, e := range ref.Index {
					ri.subs[i] = substExpr(e, env)
					for _, l := range loops {
						if ri.stale == "" && stale[l.Var.Name] && ir.Mentions(ri.subs[i], l.Var.Name) {
							ri.stale = l.Var.Name
						}
					}
				}
				a.refs[ref.ID()] = ri
			}
		case *ir.Call:
			// Callee bodies are walked through Prog.Routines; what a
			// callee binds is stale here once it returns.
			rebound := Rebound([]ir.Stmt{st})
			forget(env, rebound)
			markStale(stale, rebound, loops)
		}
	}
}

// markStale adds to stale each loop variable of loops that names holds.
func markStale(stale map[string]bool, names map[string]bool, loops []*ir.Loop) {
	for _, l := range loops {
		if names[l.Var.Name] {
			stale[l.Var.Name] = true
		}
	}
}

// forget drops the bindings of names, and every binding whose
// definition mentions one of them: it was computed from a value the
// name no longer holds.
func forget(env map[string]ir.Expr, names map[string]bool) {
	for name, e := range env {
		for n := range names {
			if n == name || ir.Mentions(e, n) {
				delete(env, name)
				break
			}
		}
	}
}

// substExpr replaces Let-bound variables by their (already
// substituted) definitions.
func substExpr(e ir.Expr, env map[string]ir.Expr) ir.Expr {
	if len(env) == 0 {
		return e
	}
	switch x := e.(type) {
	case *ir.Var:
		if b, ok := env[x.Name]; ok {
			return b
		}
	case *ir.Bin:
		l := substExpr(x.L, env)
		r := substExpr(x.R, env)
		if l != x.L || r != x.R {
			return &ir.Bin{Op: x.Op, L: l, R: r, Line: x.Line}
		}
	case *ir.Load:
		changed := false
		idx := make([]ir.Expr, len(x.Index))
		for i, sub := range x.Index {
			idx[i] = substExpr(sub, env)
			if idx[i] != sub {
				changed = true
			}
		}
		if changed {
			return &ir.Load{Array: x.Array, Index: idx, Line: x.Line}
		}
	}
	return e
}

// resolver resolves variable ranges in the context of a loop nest:
// loop variables (innermost shadowing outermost) first, then
// parameters; a stale loop variable and anything else is unbounded.
func (a *Analysis) resolver(loops []*ir.Loop, stale map[string]bool) func(string) symbolic.Interval {
	return func(name string) symbolic.Interval {
		if stale[name] {
			return symbolic.Interval{}
		}
		for i := len(loops) - 1; i >= 0; i-- {
			if loops[i].Var.Name == name {
				return a.loops[loops[i]].rng
			}
		}
		return a.Param(name)
	}
}

// Param is the value of a parameter no routine rebinds, as a point
// interval; any other name is unbounded.
func (a *Analysis) Param(name string) symbolic.Interval {
	if a.rebound[name] {
		return symbolic.Interval{}
	}
	return a.bound(name)
}

// bound is a parameter's bound value as a point interval, rebound or
// not; any other name is unbounded.
func (a *Analysis) bound(name string) symbolic.Interval {
	if v, ok := a.Params[name]; ok {
		return symbolic.Point(v)
	}
	return symbolic.Interval{}
}

// pairAll analyzes every reference pair sharing an array.
func (a *Analysis) pairAll() {
	n := len(a.Info.Refs)
	for i := 0; i < n; i++ {
		x := a.refs[trace.RefID(i)]
		if x == nil {
			continue
		}
		for j := i; j < n; j++ {
			y := a.refs[trace.RefID(j)]
			if y == nil || x.ref.Array != y.ref.Array {
				continue
			}
			if d := a.pairDeps(x, y, nil); d != nil {
				a.Deps = append(a.Deps, d)
				a.pairs[[2]trace.RefID{trace.RefID(i), trace.RefID(j)}] = d
			}
		}
	}
}

// fusePair aligns a loop from the source side with a loop from the
// destination side as one extra virtual common position (loop fusion
// legality). Both loops must have equal constant steps.
type fusePair struct {
	la, lb *ir.Loop
}

// slotInfo describes one common (or virtual) loop position of a pair
// equation: the variable ranges of the two instances and their shared
// lattice, if any.
type slotInfo struct {
	ra, rb    symbolic.Interval
	step      int64
	latticeOK bool
	lo        int64
	loop      *ir.Loop
}

type pairTerm struct {
	slot   int
	ca, cb int64
}

type ownTerm struct {
	loop  *ir.Loop
	coeff int64
	dst   bool // term from the destination side
}

// eqn is one subscript-dimension equation
// Σ (cb·vb − ca·va) + Σ coeff·u + c = 0.
type eqn struct {
	c     int64
	pairs []pairTerm
	owns  []ownTerm
}

type forcedDist struct {
	set  bool
	dval int64 // forced value distance vb − va
}

// pairDeps analyzes one reference pair. It returns nil when the pair
// is provably independent, a Dep with Unknown set when it cannot
// decide, and a Dep with feasible Vectors otherwise.
func (a *Analysis) pairDeps(x, y *refInfo, align *fusePair) *Dep {
	for _, l := range x.loops {
		if a.loops[l].empty {
			return nil
		}
	}
	for _, l := range y.loops {
		if a.loops[l].empty {
			return nil
		}
	}
	common := commonPrefix(x.loops, y.loops)
	d := &Dep{Src: x.ref, Dst: y.ref, Kind: pairKind(x.ref.Write, y.ref.Write), Loops: common, SiblingOK: true}
	for _, side := range []*refInfo{x, y} {
		if side.stale != "" {
			d.Unknown = true
			d.Reason = fmt.Sprintf("a subscript of %s reads %q after a nested loop, Let, branch or call may have rebound it",
				side.ref.Name(), side.stale)
			return d
		}
	}
	nslots := len(common)
	if align != nil {
		nslots++
	}
	slots := a.slotInfos(common, align)
	forced := make([]forcedDist, nslots)
	var eqns []eqn

	for dim := 0; dim < len(x.subs); dim++ {
		for _, side := range []*refInfo{x, y} {
			f := symbolic.Analyze(side.subs[dim])
			if f.HasNonAffine() {
				d.Unknown = true
				d.Reason = fmt.Sprintf("non-affine subscript %s in %s", side.subs[dim], side.ref.Name())
				return d
			}
			if f.HasIndirect() {
				d.Unknown = true
				d.Reason = fmt.Sprintf("indirect subscript %s in %s", side.subs[dim], side.ref.Name())
				return d
			}
		}
		e, reason := a.buildEqn(x, y, dim, common, align)
		if reason != "" {
			d.Unknown = true
			d.Reason = reason
			return d
		}
		if len(e.pairs) == 0 && len(e.owns) == 0 {
			if e.c != 0 {
				return nil // ZIV: constant subscripts differ
			}
			continue
		}
		if a.gcdUnsat(e, slots) {
			return nil
		}
		// Strong SIV: a single equal-coefficient pair forces the
		// value distance at its position.
		if len(e.owns) == 0 && len(e.pairs) == 1 && e.pairs[0].ca == e.pairs[0].cb {
			ca := e.pairs[0].ca
			if e.c%ca != 0 {
				return nil
			}
			dval := -e.c / ca
			slot := e.pairs[0].slot
			if forced[slot].set && forced[slot].dval != dval {
				return nil // two dimensions force conflicting distances
			}
			s := slots[slot]
			if s.latticeOK && dval%s.step != 0 {
				return nil // off the shared iteration lattice
			}
			forced[slot] = forcedDist{set: true, dval: dval}
		}
		if len(e.owns) > 0 && !a.siblingOffset(d, e) {
			return nil
		}
		eqns = append(eqns, e)
	}

	// Enumerate directions for every constrained position.
	inEqn := map[int]bool{}
	for _, e := range eqns {
		for _, t := range e.pairs {
			inEqn[t.slot] = true
		}
	}
	constrained := make([]int, 0, len(inEqn))
	for s := range inEqn {
		constrained = append(constrained, s)
	}
	sort.Ints(constrained)

	dirs := make([]Dir, nslots)
	for i := range dirs {
		dirs[i] = DirAny
	}
	// The all-'=' assignment of a self pair is the same dynamic
	// instance — not a dependence — but only in the entry routine,
	// which runs once; a routine called repeatedly revisits the same
	// indices across invocations.
	self := x.ref == y.ref && x.routine == a.Info.Prog.Main
	var rec func(k int)
	rec = func(k int) {
		if k == len(constrained) {
			if self && len(constrained) == nslots {
				all := true
				for _, dd := range dirs {
					if dd != DirEQ {
						all = false
						break
					}
				}
				if all {
					return // the same dynamic instance is not a dependence
				}
			}
			for _, e := range eqns {
				if !a.eqnFeasible(e, slots, dirs) {
					return
				}
			}
			v := Vector{
				Dirs:  append([]Dir(nil), dirs...),
				Dist:  make([]int64, nslots),
				Known: make([]bool, nslots),
			}
			for s := range dirs {
				switch {
				case dirs[s] == DirEQ:
					v.Known[s] = true
				case forced[s].set && slots[s].latticeOK:
					v.Known[s] = true
					v.Dist[s] = forced[s].dval / slots[s].step
				}
			}
			d.Vectors = append(d.Vectors, v)
			return
		}
		slot := constrained[k]
		for _, dd := range []Dir{DirLT, DirEQ, DirGT} {
			if forced[slot].set && !dirAllows(dd, forced[slot].dval, slots[slot]) {
				continue
			}
			dirs[slot] = dd
			rec(k + 1)
		}
		dirs[slot] = DirAny
	}
	rec(0)

	if len(d.Vectors) == 0 {
		return nil
	}
	return d
}

// siblingOffset digests an equation with own-side loop terms. The
// interesting shape is one src and one dst own loop with opposite
// coefficients and no common-loop pairs — e.g. the separate i sweeps
// of a two-pass stencil, where A[i-1] read in the second sweep
// depends on A[i] written in the first. Such an equation forces a
// constant value offset between the two loop variables; when both
// loops share a constant lower bound and step, that is a constant
// iteration offset, recorded in SiblingDist. Any other shape clears
// SiblingOK. The return value is false only when the equation is
// provably unsatisfiable (the pair is independent).
func (a *Analysis) siblingOffset(d *Dep, e eqn) bool {
	if len(e.pairs) != 0 || len(e.owns) != 2 || e.owns[0].dst == e.owns[1].dst {
		d.SiblingOK = false
		return true
	}
	src, dst := e.owns[0], e.owns[1]
	if src.dst {
		src, dst = dst, src
	}
	c := dst.coeff
	if c == 0 || src.coeff != -c {
		d.SiblingOK = false
		return true
	}
	// c·(v_dst − v_src) + e.c = 0
	if e.c%c != 0 {
		return false // no integer solution: independent in this dimension
	}
	off := -e.c / c
	ls, ld := a.loops[src.loop], a.loops[dst.loop]
	if ls.step != ld.step || !ls.loConstOK || !ld.loConstOK {
		d.SiblingOK = false
		return true
	}
	val := off - (ld.loConst - ls.loConst)
	if val%ls.step != 0 {
		return false // off the shared iteration lattice
	}
	if iter := val / ls.step; abs64(iter) > abs64(d.SiblingDist) {
		d.SiblingDist = iter
	}
	return true
}

// dirAllows checks a hard direction against a forced value distance.
func dirAllows(d Dir, dval int64, s slotInfo) bool {
	gap := s.step
	if !s.latticeOK {
		gap = sign64(s.step)
	}
	switch d {
	case DirEQ:
		return dval == 0
	case DirLT:
		if s.step > 0 {
			return dval >= gap
		}
		return dval <= gap
	case DirGT:
		if s.step > 0 {
			return dval <= -gap
		}
		return dval >= -gap
	}
	return true
}

// buildEqn classifies every subscript variable of dimension dim into a
// common-loop instance pair, a virtual fusion pair, an own-side loop
// term, or a parameter. A variable that is none of those makes the
// pair Unknown (non-empty reason).
func (a *Analysis) buildEqn(x, y *refInfo, dim int, common []*ir.Loop, align *fusePair) (eqn, string) {
	fx := symbolic.Analyze(x.subs[dim])
	fy := symbolic.Analyze(y.subs[dim])
	e := eqn{c: fy.Const - fx.Const}
	pairs := map[int]*pairTerm{}
	owns := map[*ir.Loop]*ownTerm{}
	virtual := len(common)

	addSide := func(side *refInfo, f symbolic.Form, dst bool) string {
		vars := make([]string, 0, len(f.Coeff))
		for v := range f.Coeff {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			coeff := f.Coeff[v]
			if coeff == 0 {
				continue
			}
			l := findLoop(side.loops, v)
			if l == nil {
				if val, ok := a.Param(v).Const(); ok {
					if dst {
						e.c += coeff * val
					} else {
						e.c -= coeff * val
					}
					continue
				}
				return fmt.Sprintf("subscript %s of %s depends on %q, which is neither a loop variable around it nor a parameter that keeps its bound value",
					side.subs[dim], side.ref.Name(), v)
			}
			slot := -1
			if p := loopIndex(common, l); p >= 0 {
				slot = p
			} else if align != nil && ((!dst && l == align.la) || (dst && l == align.lb)) {
				slot = virtual
			}
			if slot >= 0 {
				t := pairs[slot]
				if t == nil {
					t = &pairTerm{slot: slot}
					pairs[slot] = t
				}
				if dst {
					t.cb += coeff
				} else {
					t.ca += coeff
				}
				continue
			}
			o := owns[l]
			if o == nil {
				o = &ownTerm{loop: l, dst: dst}
				owns[l] = o
			}
			if dst {
				o.coeff += coeff
			} else {
				o.coeff -= coeff
			}
		}
		return ""
	}
	if r := addSide(x, fx, false); r != "" {
		return e, r
	}
	if r := addSide(y, fy, true); r != "" {
		return e, r
	}

	slotIDs := make([]int, 0, len(pairs))
	for s := range pairs {
		slotIDs = append(slotIDs, s)
	}
	sort.Ints(slotIDs)
	for _, s := range slotIDs {
		if t := pairs[s]; t.ca != 0 || t.cb != 0 {
			e.pairs = append(e.pairs, *t)
		}
	}
	ownLoops := make([]*ir.Loop, 0, len(owns))
	for l := range owns {
		ownLoops = append(ownLoops, l)
	}
	sort.Slice(ownLoops, func(i, j int) bool { return ownLoops[i].Var.Name < ownLoops[j].Var.Name })
	for _, l := range ownLoops {
		if o := owns[l]; o.coeff != 0 {
			e.owns = append(e.owns, *o)
		}
	}
	return e, ""
}

// slotInfos resolves per-slot ranges, steps and lattices.
func (a *Analysis) slotInfos(common []*ir.Loop, align *fusePair) []slotInfo {
	n := len(common)
	if align != nil {
		n++
	}
	out := make([]slotInfo, n)
	for i, l := range common {
		li := a.loops[l]
		out[i] = slotInfo{ra: li.rng, rb: li.rng, step: li.step, latticeOK: li.loConstOK, lo: li.loConst, loop: l}
	}
	if align != nil {
		ia, ib := a.loops[align.la], a.loops[align.lb]
		s := slotInfo{ra: ia.rng, rb: ib.rng, step: ia.step, loop: align.la}
		if ia.loConstOK && ib.loConstOK && ia.loConst == ib.loConst {
			s.latticeOK = true
			s.lo = ia.loConst
		}
		out[n-1] = s
	}
	return out
}

// gcdUnsat runs the GCD test, normalized to iteration counts for
// every variable whose loop has a constant lower bound.
func (a *Analysis) gcdUnsat(e eqn, slots []slotInfo) bool {
	c := e.c
	var g int64
	for _, t := range e.pairs {
		s := slots[t.slot]
		if s.latticeOK {
			c += (t.cb - t.ca) * s.lo
			if t.ca == t.cb {
				g = gcd64(g, abs64(t.ca*s.step))
			} else {
				g = gcd64(g, abs64(t.ca*s.step))
				g = gcd64(g, abs64(t.cb*s.step))
			}
		} else if t.ca == t.cb {
			g = gcd64(g, abs64(t.ca))
		} else {
			g = gcd64(g, abs64(t.ca))
			g = gcd64(g, abs64(t.cb))
		}
	}
	for _, o := range e.owns {
		li := a.loops[o.loop]
		if li.loConstOK {
			c += o.coeff * li.loConst
			g = gcd64(g, abs64(o.coeff*li.step))
		} else {
			g = gcd64(g, abs64(o.coeff))
		}
	}
	if g == 0 {
		return c != 0
	}
	return c%g != 0
}

// eqnFeasible checks whether the equation can be zero under the given
// hard directions, by exact interval bounds on each term.
func (a *Analysis) eqnFeasible(e eqn, slots []slotInfo, dirs []Dir) bool {
	total := symbolic.Point(e.c)
	for _, t := range e.pairs {
		contrib, ok := pairContrib(t.ca, t.cb, slots[t.slot], dirs[t.slot])
		if !ok {
			return false
		}
		total = total.Add(contrib)
	}
	for _, o := range e.owns {
		total = total.Add(a.loops[o.loop].rng.Scale(o.coeff))
	}
	if total.LoOK && total.Lo > 0 {
		return false
	}
	if total.HiOK && total.Hi < 0 {
		return false
	}
	return true
}

// pairContrib bounds g = cb·vb − ca·va over the instance region a
// direction selects. The region is the rectangle ra×rb cut by the
// iteration-order halfplane; with full bounds the exact polygon
// vertices are enumerated (the Banerjee bounds), otherwise the
// unconstrained rectangle bound is used. ok=false means the region is
// provably empty (e.g. a single-trip loop cannot carry a dependence).
func pairContrib(ca, cb int64, s slotInfo, dir Dir) (contrib symbolic.Interval, ok bool) {
	full := func() symbolic.Interval {
		return s.rb.Scale(cb).Add(s.ra.Scale(-ca))
	}
	if dir == DirAny {
		return full(), true
	}
	if dir == DirEQ {
		var inter symbolic.Interval
		inter.LoOK = s.ra.LoOK || s.rb.LoOK
		switch {
		case s.ra.LoOK && s.rb.LoOK:
			inter.Lo = max(s.ra.Lo, s.rb.Lo)
		case s.ra.LoOK:
			inter.Lo = s.ra.Lo
		case s.rb.LoOK:
			inter.Lo = s.rb.Lo
		}
		inter.HiOK = s.ra.HiOK || s.rb.HiOK
		switch {
		case s.ra.HiOK && s.rb.HiOK:
			inter.Hi = min(s.ra.Hi, s.rb.Hi)
		case s.ra.HiOK:
			inter.Hi = s.ra.Hi
		case s.rb.HiOK:
			inter.Hi = s.rb.Hi
		}
		if inter.LoOK && inter.HiOK && inter.Lo > inter.Hi {
			return symbolic.Interval{}, false
		}
		return inter.Scale(cb - ca), true
	}
	if !(s.ra.LoOK && s.ra.HiOK && s.rb.LoOK && s.rb.HiOK) {
		return full(), true
	}
	la, ua, lb, ub := s.ra.Lo, s.ra.Hi, s.rb.Lo, s.rb.Hi
	if la > ua || lb > ub {
		return symbolic.Interval{}, false
	}
	// Halfplane on d = vb − va. On a shared lattice one iteration is
	// |step| apart; otherwise instances from different executions can
	// sit anywhere, so only strict value order is required.
	gap := s.step
	if !s.latticeOK {
		gap = sign64(s.step)
	}
	var t int64
	var geq bool
	switch {
	case dir == DirLT && s.step > 0:
		t, geq = gap, true
	case dir == DirLT && s.step < 0:
		t, geq = gap, false
	case dir == DirGT && s.step > 0:
		t, geq = -gap, false
	default: // DirGT, negative step
		t, geq = -gap, true
	}
	sat := func(va, vb int64) bool {
		d := vb - va
		if geq {
			return d >= t
		}
		return d <= t
	}
	var pts [][2]int64
	for _, va := range [2]int64{la, ua} {
		for _, vb := range [2]int64{lb, ub} {
			if sat(va, vb) {
				pts = append(pts, [2]int64{va, vb})
			}
		}
	}
	for _, va := range [2]int64{la, ua} {
		if vb := va + t; vb >= lb && vb <= ub {
			pts = append(pts, [2]int64{va, vb})
		}
	}
	for _, vb := range [2]int64{lb, ub} {
		if va := vb - t; va >= la && va <= ua {
			pts = append(pts, [2]int64{va, vb})
		}
	}
	if len(pts) == 0 {
		return symbolic.Interval{}, false
	}
	out := symbolic.Interval{LoOK: true, HiOK: true}
	for i, p := range pts {
		g := cb*p[1] - ca*p[0]
		if i == 0 || g < out.Lo {
			out.Lo = g
		}
		if i == 0 || g > out.Hi {
			out.Hi = g
		}
	}
	return out, true
}

func pairKind(srcWrite, dstWrite bool) Kind {
	switch {
	case srcWrite && dstWrite:
		return Output
	case srcWrite:
		return Flow
	case dstWrite:
		return Anti
	}
	return Input
}

func commonPrefix(a, b []*ir.Loop) []*ir.Loop {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i:i]
}

// findLoop returns the innermost loop in nest (outermost first) whose
// variable has the given name.
func findLoop(nest []*ir.Loop, name string) *ir.Loop {
	for i := len(nest) - 1; i >= 0; i-- {
		if nest[i].Var.Name == name {
			return nest[i]
		}
	}
	return nil
}

func loopIndex(nest []*ir.Loop, l *ir.Loop) int {
	for i, x := range nest {
		if x == l {
			return i
		}
	}
	return -1
}

func gcd64(a, b int64) int64 {
	a, b = abs64(a), abs64(b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func sign64(v int64) int64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}
