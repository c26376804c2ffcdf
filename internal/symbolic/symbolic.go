// Package symbolic computes the symbolic first-location and stride
// formulas of Section III.
//
// The paper recovers these by tracing use-def chains through optimized
// machine code; here the same information is derived from IR index
// expressions (the substitution is documented in DESIGN.md). The result
// for each reference is an affine form over loop variables and parameters,
// in bytes:
//
//	addr(ref) = Const + Σ Coeff[v]·v
//
// plus two flag sets mirroring the paper's stride-formula flags:
// NonAffine[v] marks variables the address depends on non-affinely (the
// paper's "irregular stride" flag), and Indirect[v] marks variables that
// feed a Load used in the subscripts (the paper's "indirect" flag).
package symbolic

import (
	"fmt"
	"sort"
	"strings"

	"reusetool/internal/ir"
)

// Form is the affine-with-flags summary of an integer expression.
type Form struct {
	Const     int64
	Coeff     map[string]int64
	NonAffine map[string]bool
	Indirect  map[string]bool
}

func newForm() Form {
	return Form{Coeff: map[string]int64{}, NonAffine: map[string]bool{}, Indirect: map[string]bool{}}
}

// IsConst reports whether the form has no variable dependence at all.
func (f Form) IsConst() bool {
	return len(f.Coeff) == 0 && len(f.NonAffine) == 0 && len(f.Indirect) == 0
}

// HasIndirect reports whether any variable feeds an indirection.
func (f Form) HasIndirect() bool { return len(f.Indirect) > 0 }

// HasNonAffine reports whether the form is non-affine in any variable.
func (f Form) HasNonAffine() bool { return len(f.NonAffine) > 0 }

// Vars returns all variables the form depends on, sorted.
func (f Form) Vars() []string {
	set := map[string]bool{}
	for v, c := range f.Coeff {
		if c != 0 {
			set[v] = true
		}
	}
	for v := range f.NonAffine {
		set[v] = true
	}
	for v := range f.Indirect {
		set[v] = true
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// String renders the form, e.g. "8*i + 320*j + 64 [irregular: k]".
func (f Form) String() string {
	var parts []string
	vars := make([]string, 0, len(f.Coeff))
	for v, c := range f.Coeff {
		if c != 0 {
			vars = append(vars, v)
		}
	}
	sort.Strings(vars)
	for _, v := range vars {
		parts = append(parts, fmt.Sprintf("%d*%s", f.Coeff[v], v))
	}
	if f.Const != 0 || len(parts) == 0 {
		parts = append(parts, fmt.Sprintf("%d", f.Const))
	}
	s := strings.Join(parts, " + ")
	if len(f.NonAffine) > 0 {
		s += " [irregular: " + joinSet(f.NonAffine) + "]"
	}
	if len(f.Indirect) > 0 {
		s += " [indirect: " + joinSet(f.Indirect) + "]"
	}
	return s
}

func joinSet(m map[string]bool) string {
	vs := make([]string, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return strings.Join(vs, ",")
}

// Analyze computes the form of an integer expression.
func Analyze(e ir.Expr) Form {
	switch x := e.(type) {
	case ir.Const:
		f := newForm()
		f.Const = int64(x)
		return f
	case *ir.Var:
		f := newForm()
		f.Coeff[x.Name] = 1
		return f
	case *ir.Bin:
		l, r := Analyze(x.L), Analyze(x.R)
		switch x.Op {
		case ir.OpAdd:
			return combine(l, r, 1)
		case ir.OpSub:
			return combine(l, r, -1)
		case ir.OpMul:
			if l.IsConst() {
				return scaleForm(r, l.Const)
			}
			if r.IsConst() {
				return scaleForm(l, r.Const)
			}
			return demote(l, r)
		default: // Div, Mod, Min, Max: conservatively non-affine
			if l.IsConst() && r.IsConst() {
				f := newForm()
				// Constant fold would normally have removed this.
				f.Const = constBin(x.Op, l.Const, r.Const)
				return f
			}
			return demote(l, r)
		}
	case *ir.Load:
		f := newForm()
		for _, idx := range x.Index {
			sub := Analyze(idx)
			for _, v := range sub.Vars() {
				f.Indirect[v] = true
			}
		}
		return f
	}
	panic(fmt.Sprintf("symbolic: unknown expression %T", e))
}

func constBin(op ir.BinOp, l, r int64) int64 {
	switch op {
	case ir.OpDiv:
		return l / r
	case ir.OpMod:
		return l % r
	case ir.OpMin:
		if l < r {
			return l
		}
		return r
	case ir.OpMax:
		if l > r {
			return l
		}
		return r
	}
	panic("constBin: bad op")
}

// combine returns l + sign*r.
func combine(l, r Form, sign int64) Form {
	f := newForm()
	f.Const = l.Const + sign*r.Const
	for v, c := range l.Coeff {
		f.Coeff[v] += c
	}
	for v, c := range r.Coeff {
		f.Coeff[v] += sign * c
	}
	for v := range l.NonAffine {
		f.NonAffine[v] = true
	}
	for v := range r.NonAffine {
		f.NonAffine[v] = true
	}
	for v := range l.Indirect {
		f.Indirect[v] = true
	}
	for v := range r.Indirect {
		f.Indirect[v] = true
	}
	return f
}

// scaleForm multiplies a form by a constant.
func scaleForm(f Form, k int64) Form {
	out := newForm()
	out.Const = f.Const * k
	for v, c := range f.Coeff {
		out.Coeff[v] = c * k
	}
	for v := range f.NonAffine {
		out.NonAffine[v] = true
	}
	for v := range f.Indirect {
		out.Indirect[v] = true
	}
	return out
}

// demote merges two forms whose combination is not affine: every variable
// an operand names becomes non-affine (indirect wins over non-affine).
// That includes a variable whose coefficient cancelled to zero: demote
// drops both constants, so without its flag max(8, i - i) would come out
// as the constant 0.
func demote(l, r Form) Form {
	f := newForm()
	for _, src := range []Form{l, r} {
		flag := func(v string) {
			if src.Indirect[v] {
				f.Indirect[v] = true
			} else {
				f.NonAffine[v] = true
			}
		}
		for v := range src.Coeff {
			flag(v)
		}
		for v := range src.NonAffine {
			flag(v)
		}
		for v := range src.Indirect {
			flag(v)
		}
	}
	return f
}

// RefAddress computes the byte-offset form of a reference given the
// resolved per-dimension byte strides of its array (from interp.Layout).
// The array base is not included; related-reference analysis only ever
// compares offsets within one array.
func RefAddress(ref *ir.Ref, strides []int64) Form {
	f := newForm()
	for d, idx := range ref.Index {
		f = combine(f, scaleForm(Analyze(idx), strides[d]), 1)
	}
	return f
}

// StrideClass classifies a reference's stride with respect to a loop.
type StrideClass uint8

// Stride classes, per the paper's stride formula flags.
const (
	// StrideZero: the address does not change with the loop variable.
	StrideZero StrideClass = iota
	// StrideConst: the address advances by a fixed byte count per
	// iteration.
	StrideConst
	// StrideIrregular: the stride changes between iterations (non-affine
	// dependence).
	StrideIrregular
	// StrideIndirect: the location depends on a value loaded by another
	// reference with a non-zero stride in this loop.
	StrideIndirect
)

// String implements fmt.Stringer.
func (c StrideClass) String() string {
	switch c {
	case StrideZero:
		return "zero"
	case StrideConst:
		return "const"
	case StrideIrregular:
		return "irregular"
	case StrideIndirect:
		return "indirect"
	}
	return "?"
}

// Stride is a classified per-loop stride.
type Stride struct {
	Class StrideClass
	// Bytes is the per-iteration stride for StrideConst (loop step already
	// applied).
	Bytes int64
}

// StrideWRT classifies the stride of an address form with respect to a
// loop (its variable and constant step).
func StrideWRT(f Form, loopVar string, step int64) Stride {
	if f.Indirect[loopVar] {
		return Stride{Class: StrideIndirect}
	}
	if f.NonAffine[loopVar] {
		return Stride{Class: StrideIrregular}
	}
	c := f.Coeff[loopVar]
	if c == 0 {
		return Stride{Class: StrideZero}
	}
	return Stride{Class: StrideConst, Bytes: c * step}
}
