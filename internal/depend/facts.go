package depend

import (
	"slices"

	"reusetool/internal/ir"
	"reusetool/internal/symbolic"
	"reusetool/internal/trace"
)

// Rebound returns the names the bodies may rebind: their Let targets
// and loop variables at any nesting depth, and those of every routine
// they call, since all routines share one variable namespace.
func Rebound(bodies ...[]ir.Stmt) map[string]bool {
	out := map[string]bool{}
	called := map[*ir.Routine]bool{}
	var walk func(body []ir.Stmt)
	walk = func(body []ir.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ir.Let:
				out[st.Var.Name] = true
			case *ir.Loop:
				out[st.Var.Name] = true
				walk(st.Body)
			case *ir.If:
				walk(st.Then)
				walk(st.Else)
			case *ir.Call:
				if !called[st.Callee] {
					called[st.Callee] = true
					walk(st.Callee.Body)
				}
			}
		}
	}
	for _, body := range bodies {
		walk(body)
	}
	return out
}

// Subscripts returns the subscripts of reference id with the Let
// bindings that reach it substituted; nil for a reference no routine
// contains.
func (a *Analysis) Subscripts(id trace.RefID) []ir.Expr {
	if ri := a.refs[id]; ri != nil {
		return ri.subs
	}
	return nil
}

// EmptyLoop is a loop that provably runs no iteration, with its bounds
// after Let substitution.
type EmptyLoop struct {
	Loop    *ir.Loop
	Routine *ir.Routine
	Lo, Hi  ir.Expr
}

// EmptyLoops lists the loops that provably never execute, by line.
func (a *Analysis) EmptyLoops() []EmptyLoop {
	var out []EmptyLoop
	for _, li := range a.loops {
		if li.empty {
			out = append(out, EmptyLoop{Loop: li.loop, Routine: li.routine, Lo: li.lo, Hi: li.hi})
		}
	}
	slices.SortFunc(out, func(x, y EmptyLoop) int { return x.Loop.Line - y.Loop.Line })
	return out
}

// Span returns the exact range [lo,hi] that subscript d of reference id
// reaches, and the extent of that dimension. It answers only when the
// range is attained: the reference is unguarded, every loop around it
// has constant bounds and provably executes, the subscript is affine in
// loop variables and parameters and reads no stale loop variable or
// rebound parameter, and the extent is a constant.
func (a *Analysis) Span(id trace.RefID, d int) (lo, hi, ext int64, ok bool) {
	ri := a.refs[id]
	if ri == nil || ri.guarded || ri.stale != "" || !a.rectangularNest(ri.loops) {
		return 0, 0, 0, false
	}
	form := symbolic.Analyze(ri.subs[d])
	if form.HasNonAffine() || form.HasIndirect() {
		return 0, 0, 0, false
	}
	if lo, hi, ok = a.affineExtent(form, ri.loops); !ok {
		return 0, 0, 0, false
	}
	ext, ok = a.Extent(ri.ref.Array, d)
	return lo, hi, ext, ok
}

// Extent is the constant extent of dimension d of arr. The layout sizes
// every array once, before any routine runs, so a rebound parameter
// counts at its bound value here.
func (a *Analysis) Extent(arr *ir.Array, d int) (int64, bool) {
	return symbolic.EvalInterval(arr.Dims[d], a.bound).Const()
}

// rectangularNest reports whether every loop around a reference has
// constant bounds (given the parameters) and provably executes: only
// then is the interval of an affine subscript actually attained.
func (a *Analysis) rectangularNest(nest []*ir.Loop) bool {
	for _, l := range nest {
		li := a.loops[l]
		if li.guarded {
			return false
		}
		lo, ok1 := symbolic.EvalInterval(li.lo, a.Param).Const()
		hi, ok2 := symbolic.EvalInterval(li.hi, a.Param).Const()
		if !ok1 || !ok2 {
			return false
		}
		if li.step > 0 && hi < lo {
			return false
		}
		if li.step < 0 && hi > lo {
			return false
		}
	}
	return true
}

// affineExtent computes the exact attained [min,max] of an affine
// subscript form over a rectangular nest. Every variable must resolve
// to a constant-bounded loop of the nest or a parameter no routine
// rebinds.
func (a *Analysis) affineExtent(form symbolic.Form, nest []*ir.Loop) (lo, hi int64, ok bool) {
	lo, hi = form.Const, form.Const
	for name, coeff := range form.Coeff {
		if coeff == 0 {
			continue
		}
		r := a.Param(name)
		if l := findLoop(nest, name); l != nil {
			r = a.loops[l].rng
		}
		if !r.Bounded() {
			return 0, 0, false
		}
		c := r.Scale(coeff)
		lo += c.Lo
		hi += c.Hi
	}
	return lo, hi, true
}
