package symbolic

import (
	"fmt"

	"reusetool/internal/ir"
)

// Interval is a conservative integer interval [Lo,Hi]. Each endpoint is
// present only when its OK flag is set; an absent endpoint means -inf
// or +inf. The zero value is the unbounded interval (the lattice top).
// Every operation over-approximates: the true value set is always
// contained in the result.
type Interval struct {
	Lo, Hi     int64
	LoOK, HiOK bool
}

// Point is the singleton interval [v,v].
func Point(v int64) Interval { return Interval{Lo: v, Hi: v, LoOK: true, HiOK: true} }

// Const reports the single value of a singleton interval.
func (iv Interval) Const() (int64, bool) {
	if iv.LoOK && iv.HiOK && iv.Lo == iv.Hi {
		return iv.Lo, true
	}
	return 0, false
}

// Bounded reports whether both endpoints are present.
func (iv Interval) Bounded() bool { return iv.LoOK && iv.HiOK }

// String renders the interval, e.g. "[0,7]" or "[-inf,3]".
func (iv Interval) String() string {
	lo, hi := "-inf", "+inf"
	if iv.LoOK {
		lo = fmt.Sprint(iv.Lo)
	}
	if iv.HiOK {
		hi = fmt.Sprint(iv.Hi)
	}
	return "[" + lo + "," + hi + "]"
}

// Add is the interval sum.
func (iv Interval) Add(b Interval) Interval {
	return Interval{
		Lo: iv.Lo + b.Lo, LoOK: iv.LoOK && b.LoOK,
		Hi: iv.Hi + b.Hi, HiOK: iv.HiOK && b.HiOK,
	}
}

// Scale multiplies the interval by a constant.
func (iv Interval) Scale(k int64) Interval {
	switch {
	case k == 0:
		return Point(0)
	case k > 0:
		return Interval{Lo: iv.Lo * k, LoOK: iv.LoOK, Hi: iv.Hi * k, HiOK: iv.HiOK}
	}
	return Interval{Lo: iv.Hi * k, LoOK: iv.HiOK, Hi: iv.Lo * k, HiOK: iv.LoOK}
}

func (iv Interval) neg() Interval {
	return Interval{Lo: -iv.Hi, LoOK: iv.HiOK, Hi: -iv.Lo, HiOK: iv.LoOK}
}

func mulInterval(a, b Interval) Interval {
	if k, ok := a.Const(); ok {
		return b.Scale(k)
	}
	if k, ok := b.Const(); ok {
		return a.Scale(k)
	}
	if !a.Bounded() || !b.Bounded() {
		return Interval{}
	}
	out := Point(a.Lo * b.Lo)
	for _, v := range [3]int64{a.Lo * b.Hi, a.Hi * b.Lo, a.Hi * b.Hi} {
		out.Lo = min(out.Lo, v)
		out.Hi = max(out.Hi, v)
	}
	return out
}

// divInterval divides by a constant divisor; any other divisor loses
// all precision. Go's truncated division is monotone in the dividend
// for a fixed divisor sign, so endpoints map to endpoints.
func divInterval(a, b Interval) Interval {
	d, ok := b.Const()
	if !ok || d == 0 {
		return Interval{}
	}
	if d > 0 {
		return Interval{Lo: a.Lo / d, LoOK: a.LoOK, Hi: a.Hi / d, HiOK: a.HiOK}
	}
	return Interval{Lo: a.Hi / d, LoOK: a.HiOK, Hi: a.Lo / d, HiOK: a.LoOK}
}

// modInterval bounds a remainder by a constant modulus. Go's % takes
// the dividend's sign and is smaller than the modulus in magnitude, so
// the modulus's own sign does not matter.
func modInterval(a, b Interval) Interval {
	m, ok := b.Const()
	if !ok || m == 0 {
		return Interval{}
	}
	if m < 0 {
		m = -m
	}
	if a.Bounded() && a.Lo >= 0 && a.Hi < m {
		return a
	}
	if a.LoOK && a.Lo >= 0 {
		return Interval{Lo: 0, LoOK: true, Hi: m - 1, HiOK: true}
	}
	return Interval{Lo: -(m - 1), LoOK: true, Hi: m - 1, HiOK: true}
}

func minInterval(a, b Interval) Interval {
	var out Interval
	if a.LoOK && b.LoOK {
		out.LoOK = true
		out.Lo = min(a.Lo, b.Lo)
	}
	// min(x,y) <= x and <= y: either upper bound alone caps the result.
	switch {
	case a.HiOK && b.HiOK:
		out.HiOK = true
		out.Hi = min(a.Hi, b.Hi)
	case a.HiOK:
		out.HiOK = true
		out.Hi = a.Hi
	case b.HiOK:
		out.HiOK = true
		out.Hi = b.Hi
	}
	return out
}

func maxInterval(a, b Interval) Interval {
	return minInterval(a.neg(), b.neg()).neg()
}

// EvalInterval bounds an expression's value given the interval of each
// variable. Loads evaluate to the unbounded interval.
func EvalInterval(e ir.Expr, resolve func(name string) Interval) Interval {
	switch x := e.(type) {
	case ir.Const:
		return Point(int64(x))
	case *ir.Var:
		return resolve(x.Name)
	case *ir.Bin:
		l := EvalInterval(x.L, resolve)
		r := EvalInterval(x.R, resolve)
		switch x.Op {
		case ir.OpAdd:
			return l.Add(r)
		case ir.OpSub:
			return l.Add(r.neg())
		case ir.OpMul:
			return mulInterval(l, r)
		case ir.OpDiv:
			return divInterval(l, r)
		case ir.OpMod:
			return modInterval(l, r)
		case ir.OpMin:
			return minInterval(l, r)
		case ir.OpMax:
			return maxInterval(l, r)
		}
	}
	return Interval{}
}

// LoopRange turns the intervals of a loop's bounds into the range of
// its variable, and reports whether the loop provably runs no
// iteration for any values the bounds may take.
func LoopRange(lo, hi Interval, step int64) (rng Interval, empty bool) {
	if step > 0 {
		return Interval{Lo: lo.Lo, LoOK: lo.LoOK, Hi: hi.Hi, HiOK: hi.HiOK},
			lo.LoOK && hi.HiOK && hi.Hi < lo.Lo
	}
	return Interval{Lo: hi.Lo, LoOK: hi.LoOK, Hi: lo.Hi, HiOK: lo.HiOK},
		lo.HiOK && hi.LoOK && hi.Lo > lo.Hi
}
