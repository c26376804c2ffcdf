package reusecheck

import (
	"testing"

	"reusetool/internal/ir"
	"reusetool/internal/symbolic"
)

func iv(lo, hi int64) symbolic.Interval {
	return symbolic.Interval{Lo: lo, Hi: hi, LoOK: true, HiOK: true}
}

func TestCondDecide(t *testing.T) {
	cases := []struct {
		name string
		op   ir.CmpOp
		l, r symbolic.Interval
		want int
	}{
		{"lt always", ir.CmpLt, iv(0, 4), iv(5, 9), 1},
		{"lt never", ir.CmpLt, iv(5, 9), iv(0, 5), -1},
		{"lt maybe", ir.CmpLt, iv(0, 5), iv(5, 9), 0},
		{"le always", ir.CmpLe, iv(0, 5), iv(5, 9), 1},
		{"ge always", ir.CmpGe, iv(5, 9), iv(0, 5), 1},
		{"gt never", ir.CmpGt, iv(0, 5), iv(5, 9), -1},
		{"eq const", ir.CmpEq, symbolic.Point(3), symbolic.Point(3), 1},
		{"eq disjoint", ir.CmpEq, iv(0, 2), iv(3, 5), -1},
		{"eq maybe", ir.CmpEq, iv(0, 3), iv(3, 5), 0},
		{"ne disjoint", ir.CmpNe, iv(0, 2), iv(3, 5), 1},
		{"ne const", ir.CmpNe, symbolic.Point(4), symbolic.Point(4), -1},
		{"unbounded", ir.CmpLt, symbolic.Interval{}, iv(0, 5), 0},
	}
	for _, tc := range cases {
		if got := condDecide(tc.op, tc.l, tc.r); got != tc.want {
			t.Errorf("%s: condDecide = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestRefine(t *testing.T) {
	v := &ir.Var{Name: "i"}
	env := map[string]symbolic.Interval{"i": iv(0, 9)}

	// Then branch of "if i < 5": i in [0,4].
	got := refine(env, ir.Lt(v, ir.C(5)), false)
	if got["i"] != iv(0, 4) {
		t.Errorf("i<5 then: %s", got["i"])
	}
	// Else branch: i >= 5.
	got = refine(env, ir.Lt(v, ir.C(5)), true)
	if got["i"] != iv(5, 9) {
		t.Errorf("i<5 else: %s", got["i"])
	}
	// Variable on the right flips the operator: "5 <= i" refines i >= 5.
	got = refine(env, ir.Le(ir.C(5), v), false)
	if got["i"] != iv(5, 9) {
		t.Errorf("5<=i then: %s", got["i"])
	}
	// Equality pins both ends.
	got = refine(env, ir.Eq(v, ir.C(3)), false)
	if got["i"] != symbolic.Point(3) {
		t.Errorf("i==3 then: %s", got["i"])
	}
	// A useless refinement returns the environment unchanged.
	same := refine(env, ir.Lt(v, ir.C(100)), false)
	if same["i"] != iv(0, 9) {
		t.Errorf("i<100 should not tighten: %s", same["i"])
	}
	// The original environment is never mutated.
	if env["i"] != iv(0, 9) {
		t.Errorf("refine mutated its input: %s", env["i"])
	}
}
