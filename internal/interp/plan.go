package interp

import (
	"math"

	"reusetool/internal/ir"
	"reusetool/internal/symbolic"
	"reusetool/internal/trace"
)

// A loopPlan runs a leaf loop — one whose body holds only Access
// statements — without walking its statements. Its references are
// flattened in execution order. A reference whose every subscript is
// a polynomial (constants, variables, +, − and ×) that symbolic.Analyze
// finds affine in the loop variable is affine: at each loop instance,
// enter proves it in bounds from its first and last iteration, after
// which its address advances by one constant add per iteration. Every
// other reference (indirect, Div, Mod, Min or Max subscripts) is
// evaluated and bounds-checked per access, exactly as the walker does.
//
// Within the loop body nothing but the loop variable changes: no Let,
// loop or call runs there, and Data arrays are only written before the
// run starts. So each subscript of an affine reference is, in wrapping
// int64 arithmetic, an arithmetic progression over the iterations.
type loopPlan struct {
	refs   []plannedRef
	affine uint64 // affine references per iteration
}

// plannedRef is one reference of a planned loop.
type plannedRef struct {
	ref   *ir.Ref
	array *arrayState
	id    trace.RefID
	size  uint32
	write bool
	// coeff is, per subscript, the loop variable's coefficient; nil
	// when the reference is checked per access. varies marks the
	// subscripts that mention the loop variable.
	coeff  []int64
	varies []bool

	// addr is the next iteration's address and delta the per-iteration
	// address step; enter sets both for each loop instance.
	addr, delta uint64
}

// newPlan builds l's plan, or returns nil when l's body holds anything
// but Access statements.
func newPlan(m *Machine, l *ir.Loop) *loopPlan {
	p := &loopPlan{}
	for _, s := range l.Body {
		acc, ok := s.(*ir.Access)
		if !ok {
			return nil
		}
		for _, r := range acc.Refs {
			pr := plannedRef{
				ref:   r,
				array: &m.arrays[r.Array.Pos()],
				id:    r.ID(),
				size:  uint32(r.Array.Elem),
				write: r.Write,
				coeff: affineCoeffs(r, l.Var.Name),
			}
			if pr.coeff != nil {
				p.affine++
				pr.varies = make([]bool, len(r.Index))
				for d, e := range r.Index {
					pr.varies[d] = ir.Mentions(e, l.Var.Name)
				}
			}
			p.refs = append(p.refs, pr)
		}
	}
	return p
}

// affineCoeffs returns the coefficient of loop variable v in each
// subscript of r, or nil when some subscript is not a polynomial affine
// in v.
func affineCoeffs(r *ir.Ref, v string) []int64 {
	coeff := make([]int64, len(r.Index))
	for d, e := range r.Index {
		if !polynomial(e) {
			return nil
		}
		f := symbolic.Analyze(e)
		if f.NonAffine[v] || f.Indirect[v] {
			return nil
		}
		coeff[d] = f.Coeff[v]
	}
	return coeff
}

// polynomial reports whether e is built from constants, variables, +, −
// and × only: an expression that cannot fault and whose wrapping
// evaluation is its exact integer value modulo 2^64.
func polynomial(e ir.Expr) bool {
	switch x := e.(type) {
	case ir.Const, *ir.Var:
		return true
	case *ir.Bin:
		return (x.Op == ir.OpAdd || x.Op == ir.OpSub || x.Op == ir.OpMul) && polynomial(x.L) && polynomial(x.R)
	}
	return false
}

// enter proves every affine reference of p in bounds for one loop
// instance whose loop variable (in slot) takes the values lo + k·step
// for k = 0..last, and sets each one's first address and per-iteration
// delta. It returns false, leaving the instance to the walker, when
// some subscript leaves its bounds at the first or last iteration or
// the arithmetic that proves the iterations between overflows.
//
// The proof, per subscript: its first value v0 and last value v1 are
// evaluated as the walker would, and its per-iteration step d is the
// loop variable's coefficient times step. A subscript's walked value at
// iteration k is congruent to v0 + k·d modulo 2^64; if v0 + last·d
// equals v1 exactly and both ends lie in [0, extent), every v0 + k·d
// lies between them, so it is in bounds, fits an int64 and equals the
// walked value.
func (p *loopPlan) enter(m *Machine, slot int, lo, step int64, last uint64) bool {
	final := lo + int64(last)*step // exact: it lies between the loop's bounds
	for i := range p.refs {
		r := &p.refs[i]
		if r.coeff == nil {
			continue
		}
		st := r.array
		var addr, delta int64
		for d, e := range r.ref.Index {
			m.slots[slot] = lo
			v0, f := m.eval(e)
			if f != nil || v0 < 0 || v0 >= st.dims[d] {
				return false
			}
			addr += v0 * st.strides[d]
			if last == 0 || !r.varies[d] {
				continue // the subscript's value is the same at every iteration
			}
			m.slots[slot] = final
			v1, f := m.eval(e)
			if f != nil || v1 < 0 || v1 >= st.dims[d] {
				return false
			}
			dv := r.coeff[d] * step
			if last > math.MaxInt64 && dv != 0 {
				return false
			}
			span, ok := mulExact(int64(last), dv)
			if !ok {
				return false
			}
			if end, ok := addExact(v0, span); !ok || end != v1 {
				return false
			}
			delta += dv * st.strides[d]
		}
		r.addr, r.delta = st.base+uint64(addr), uint64(delta)
	}
	return true
}

// runPlan runs iterations 0..last of an instance that enter accepted.
// It emits the walker's events in the walker's order: only the
// addresses of affine references are formed differently.
func (m *Machine) runPlan(p *loopPlan, ls *loopState, slot int, lo, step int64, last uint64) error {
	v := lo
	for k := uint64(0); ; k++ {
		m.slots[slot] = v
		ls.trips.Iters++
		if err := m.countIteration(); err != nil {
			return err
		}
		for i := range p.refs {
			r := &p.refs[i]
			addr := r.addr
			if r.coeff != nil {
				r.addr += r.delta
			} else {
				var err error
				if addr, err = m.address(r.ref); err != nil {
					return err
				}
			}
			if err := m.countAccess(); err != nil {
				return err
			}
			m.handler.Access(r.id, addr, r.size, r.write)
		}
		if k == last {
			m.planAccesses += (last + 1) * p.affine
			return nil
		}
		v += step
	}
}
