package symbolic

import (
	"testing"

	"reusetool/internal/ir"
)

// StrideWRT with a negative step: the byte stride flips sign (a loop
// walked backwards moves the address the other way), and a negative
// coefficient with a negative step moves it forwards again.
func TestStrideWRTNegativeStep(t *testing.T) {
	p := ir.NewProgram("t")
	i := p.Var("i")

	f := Analyze(ir.Mul(ir.C(8), i)) // addr = 8*i
	if got := StrideWRT(f, "i", -1); got.Class != StrideConst || got.Bytes != -8 {
		t.Errorf("step -1: %+v, want const -8", got)
	}
	if got := StrideWRT(f, "i", -4); got.Class != StrideConst || got.Bytes != -32 {
		t.Errorf("step -4: %+v, want const -32", got)
	}

	// addr = -8*i (reversed traversal of the array): negative step makes
	// the per-iteration stride positive again.
	fr := Analyze(ir.Mul(ir.C(-8), i))
	if got := StrideWRT(fr, "i", -2); got.Class != StrideConst || got.Bytes != 16 {
		t.Errorf("reversed, step -2: %+v, want const 16", got)
	}

	// Zero, irregular, and indirect classes are step-independent.
	if got := StrideWRT(f, "j", -3); got.Class != StrideZero {
		t.Errorf("unused var: %+v, want zero", got)
	}
	fi := Analyze(ir.Mul(i, i))
	if got := StrideWRT(fi, "i", -1); got.Class != StrideIrregular {
		t.Errorf("i*i, negative step: %+v, want irregular", got)
	}
}

// Div and Mod forms demote their variables to irregular, but fold when
// both sides are constant (e.g. tile-size expressions like (N+7)/8 with N
// bound by the front end).
func TestDivModForms(t *testing.T) {
	p := ir.NewProgram("t")
	i := p.Var("i")

	// i mod 8: irregular in i — the stride resets at every wrap.
	f := Analyze(ir.Mod(i, ir.C(8)))
	if !f.NonAffine["i"] || f.HasIndirect() {
		t.Errorf("i mod 8 = %v, want irregular in i", f)
	}
	if got := StrideWRT(f, "i", 1); got.Class != StrideIrregular {
		t.Errorf("stride of i mod 8 = %+v, want irregular", got)
	}

	// i/8 (blocked row index): likewise irregular, even scaled or shifted.
	f2 := Analyze(ir.Add(ir.Mul(ir.C(64), ir.Div(i, ir.C(8))), ir.C(4)))
	if !f2.NonAffine["i"] {
		t.Errorf("64*(i/8)+4 = %v, want irregular in i", f2)
	}

	// Constant operands fold to constants: no flags, exact values.
	fd := Analyze(ir.Div(ir.C(17), ir.C(5)))
	if !fd.IsConst() || fd.Const != 3 {
		t.Errorf("17/5 = %v, want const 3", fd)
	}
	fm := Analyze(ir.Mod(ir.C(17), ir.C(5)))
	if !fm.IsConst() || fm.Const != 2 {
		t.Errorf("17 mod 5 = %v, want const 2", fm)
	}

	// An affine term survives next to an irregular one: addr = 8*j + i/2.
	j := p.Var("j")
	f3 := Analyze(ir.Add(ir.Mul(ir.C(8), j), ir.Div(i, ir.C(2))))
	if got := StrideWRT(f3, "j", 1); got.Class != StrideConst || got.Bytes != 8 {
		t.Errorf("stride wrt j = %+v, want const 8", got)
	}
	if got := StrideWRT(f3, "i", 1); got.Class != StrideIrregular {
		t.Errorf("stride wrt i = %+v, want irregular", got)
	}
}

// A loop variable appearing in both index dimensions accumulates both
// dimensions' byte strides into one coefficient (the diagonal walk
// A[i, i+1] in a column-major N x M array).
func TestLoopVarInBothDimensions(t *testing.T) {
	p := ir.NewProgram("t")
	n := p.Param("N", 100)
	a := p.AddArray("A", 8, n, p.Param("M", 50))
	i := p.Var("i")

	strides := []int64{8, 800} // elem, N*elem for N=100

	diag := a.Read(i, ir.Add(i, ir.C(1)))
	f := RefAddress(diag, strides)
	if f.Coeff["i"] != 808 || f.Const != 800 {
		t.Errorf("A[i,i+1] form = %v, want 808*i + 800", f)
	}
	if got := StrideWRT(f, "i", 1); got.Class != StrideConst || got.Bytes != 808 {
		t.Errorf("diagonal stride = %+v, want const 808", got)
	}

	// Anti-diagonal A[i, M-i]: 8*i - 800*i = -792 per iteration.
	anti := a.Read(i, ir.Sub(ir.C(50), i))
	fa := RefAddress(anti, strides)
	if fa.Coeff["i"] != -792 {
		t.Errorf("A[i,50-i] coeff = %d, want -792", fa.Coeff["i"])
	}

	// A[i, i-i] collapses the second dimension entirely.
	flat := a.Read(i, ir.Sub(i, i))
	ff := RefAddress(flat, strides)
	if ff.Coeff["i"] != 8 {
		t.Errorf("A[i,i-i] coeff = %d, want 8", ff.Coeff["i"])
	}
}

// A variable whose coefficient cancels (i - i) is still named by its
// operand: when the operand meets a non-affine operator, the variable is
// flagged, never folded into a constant. Each expression once analyzed to
// an unflagged constant that evaluation contradicts (the first is
// 16i + 16j - 32, the last 6).
func TestCancelledVariablesStayFlagged(t *testing.T) {
	p := ir.NewProgram("t")
	i, j := p.Var("i"), p.Var("j")
	cases := []struct {
		name  string
		e     ir.Expr
		flags []string
	}{
		{"(2*((i-2)+j)) * max(8, i-i)", ir.Mul(ir.Mul(ir.C(2), ir.Add(ir.Sub(i, ir.C(2)), j)), ir.Max(ir.C(8), ir.Sub(i, i))), []string{"i", "j"}},
		{"8 / (i-i)", ir.Div(ir.C(8), ir.Sub(i, i)), []string{"i"}},
		{"(i-i+3) * (j-j+2)", ir.Mul(ir.Add(ir.Sub(i, i), ir.C(3)), ir.Add(ir.Sub(j, j), ir.C(2))), []string{"i", "j"}},
	}
	for _, c := range cases {
		f := Analyze(c.e)
		if f.IsConst() || f.HasIndirect() {
			t.Errorf("%s = %v, want non-affine in %v", c.name, f, c.flags)
			continue
		}
		for _, v := range c.flags {
			if !f.NonAffine[v] {
				t.Errorf("%s = %v, want non-affine in %s", c.name, f, v)
			}
		}
	}
}
