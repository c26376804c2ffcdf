package reusecheck

import (
	"reusetool/internal/ir"
	"reusetool/internal/symbolic"
)

// evalIval abstractly evaluates an expression under the walker's
// interval environment (internal/symbolic's lattice). Unknown variables
// and indirect loads evaluate to top, the zero Interval.
func evalIval(e ir.Expr, env map[string]symbolic.Interval) symbolic.Interval {
	return symbolic.EvalInterval(e, func(name string) symbolic.Interval { return env[name] })
}

// condDecide decides a comparison between two intervals: +1 when it
// always holds, -1 when it never holds, 0 when undecided.
func condDecide(op ir.CmpOp, l, r symbolic.Interval) int {
	lt := func(a, b symbolic.Interval) int { // a < b
		if a.HiOK && b.LoOK && a.Hi < b.Lo {
			return 1
		}
		if a.LoOK && b.HiOK && a.Lo >= b.Hi {
			return -1
		}
		return 0
	}
	le := func(a, b symbolic.Interval) int { // a <= b
		if a.HiOK && b.LoOK && a.Hi <= b.Lo {
			return 1
		}
		if a.LoOK && b.HiOK && a.Lo > b.Hi {
			return -1
		}
		return 0
	}
	switch op {
	case ir.CmpLt:
		return lt(l, r)
	case ir.CmpLe:
		return le(l, r)
	case ir.CmpGt:
		return lt(r, l)
	case ir.CmpGe:
		return le(r, l)
	case ir.CmpEq:
		if lc, ok := l.Const(); ok {
			if rc, ok := r.Const(); ok && lc == rc {
				return 1
			}
		}
		if disjoint(l, r) {
			return -1
		}
		return 0
	case ir.CmpNe:
		if disjoint(l, r) {
			return 1
		}
		if lc, ok := l.Const(); ok {
			if rc, ok := r.Const(); ok && lc == rc {
				return -1
			}
		}
		return 0
	}
	return 0
}

// disjoint reports whether two intervals provably share no value.
func disjoint(l, r symbolic.Interval) bool {
	if l.HiOK && r.LoOK && l.Hi < r.Lo {
		return true
	}
	if l.LoOK && r.HiOK && l.Lo > r.Hi {
		return true
	}
	return false
}

// refine tightens the interval of a variable that a branch condition
// constrains: inside the Then branch of "if v < e" the walker may
// assume v < e. Only single-variable-vs-expression conditions refine;
// anything else returns the environment unchanged. negate applies the
// complement (the Else branch).
func refine(env map[string]symbolic.Interval, c ir.Cond, negate bool) map[string]symbolic.Interval {
	v, ok := c.L.(*ir.Var)
	bound := c.R
	op := c.Op
	if !ok {
		v, ok = c.R.(*ir.Var)
		if !ok {
			return env
		}
		bound = c.L
		op = flipCmp(c.Op)
	}
	if negate {
		op = negateCmp(op)
	}
	b := evalIval(bound, env)
	cur := env[v.Name]
	out := cur
	switch op {
	case ir.CmpLt: // v < b  =>  v <= b.Hi-1
		if b.HiOK {
			out = clampHi(out, b.Hi-1)
		}
	case ir.CmpLe:
		if b.HiOK {
			out = clampHi(out, b.Hi)
		}
	case ir.CmpGt:
		if b.LoOK {
			out = clampLo(out, b.Lo+1)
		}
	case ir.CmpGe:
		if b.LoOK {
			out = clampLo(out, b.Lo)
		}
	case ir.CmpEq:
		if b.LoOK {
			out = clampLo(out, b.Lo)
		}
		if b.HiOK {
			out = clampHi(out, b.Hi)
		}
	case ir.CmpNe:
		return env // nothing useful to refine
	}
	if out == cur {
		return env
	}
	next := make(map[string]symbolic.Interval, len(env)+1)
	for k, iv := range env {
		next[k] = iv
	}
	next[v.Name] = out
	return next
}

func clampHi(iv symbolic.Interval, hi int64) symbolic.Interval {
	if !iv.HiOK || hi < iv.Hi {
		iv.HiOK = true
		iv.Hi = hi
	}
	return iv
}

func clampLo(iv symbolic.Interval, lo int64) symbolic.Interval {
	if !iv.LoOK || lo > iv.Lo {
		iv.LoOK = true
		iv.Lo = lo
	}
	return iv
}

// flipCmp mirrors an operator across its operands (a op b == b flip(op) a).
func flipCmp(op ir.CmpOp) ir.CmpOp {
	switch op {
	case ir.CmpLt:
		return ir.CmpGt
	case ir.CmpLe:
		return ir.CmpGe
	case ir.CmpGt:
		return ir.CmpLt
	case ir.CmpGe:
		return ir.CmpLe
	}
	return op
}

// negateCmp complements an operator.
func negateCmp(op ir.CmpOp) ir.CmpOp {
	switch op {
	case ir.CmpLt:
		return ir.CmpGe
	case ir.CmpLe:
		return ir.CmpGt
	case ir.CmpGt:
		return ir.CmpLe
	case ir.CmpGe:
		return ir.CmpLt
	case ir.CmpEq:
		return ir.CmpNe
	case ir.CmpNe:
		return ir.CmpEq
	}
	return op
}
