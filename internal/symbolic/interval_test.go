package symbolic

import (
	"math/rand"
	"testing"

	"reusetool/internal/ir"
)

func iv(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi, LoOK: true, HiOK: true} }

var (
	varX = &ir.Var{Name: "x"}
	varY = &ir.Var{Name: "y"}
)

// eval2 evaluates "x op y" with x in a and y in b.
func eval2(op ir.BinOp, a, b Interval) Interval {
	return EvalInterval(&ir.Bin{Op: op, L: varX, R: varY}, func(name string) Interval {
		if name == "x" {
			return a
		}
		return b
	})
}

func TestIntervalBasics(t *testing.T) {
	if s := (Interval{}).String(); s != "[-inf,+inf]" {
		t.Errorf("top = %s", s)
	}
	if s := iv(2, 5).String(); s != "[2,5]" {
		t.Errorf("iv(2,5) = %s", s)
	}
	if v, ok := Point(7).Const(); !ok || v != 7 {
		t.Errorf("Point(7).Const = %d,%v", v, ok)
	}
	if _, ok := iv(1, 2).Const(); ok {
		t.Error("non-singleton reported Const")
	}
	if (Interval{}).Bounded() || !iv(0, 3).Bounded() {
		t.Error("Bounded flags wrong")
	}
}

func TestIntervalArith(t *testing.T) {
	top := Interval{}
	cases := []struct {
		name string
		got  Interval
		want Interval
	}{
		{"add", eval2(ir.OpAdd, iv(1, 2), iv(10, 20)), iv(11, 22)},
		{"sub", eval2(ir.OpSub, iv(1, 2), iv(10, 20)), iv(-19, -8)},
		{"neg", iv(-3, 5).neg(), iv(-5, 3)},
		{"scale pos", iv(1, 3).Scale(4), iv(4, 12)},
		{"scale neg", iv(1, 3).Scale(-2), iv(-6, -2)},
		{"scale zero", top.Scale(0), Point(0)},
		{"mul signs", eval2(ir.OpMul, iv(-2, 3), iv(-5, 7)), iv(-15, 21)},
		{"mul const", eval2(ir.OpMul, Point(3), iv(1, 2)), iv(3, 6)},
		{"mul unbounded", eval2(ir.OpMul, iv(1, 2), Interval{Lo: 0, LoOK: true}), top},
		{"div", eval2(ir.OpDiv, iv(-7, 9), Point(2)), iv(-3, 4)},
		{"div neg", eval2(ir.OpDiv, iv(2, 9), Point(-3)), iv(-3, 0)},
		{"div nonconst", eval2(ir.OpDiv, iv(0, 9), iv(1, 2)), top},
		{"div zero", eval2(ir.OpDiv, iv(0, 9), Point(0)), top},
		{"mod in range", eval2(ir.OpMod, iv(0, 3), Point(8)), iv(0, 3)},
		{"mod nonneg", eval2(ir.OpMod, iv(0, 100), Point(8)), iv(0, 7)},
		{"mod signed", eval2(ir.OpMod, top, Point(8)), iv(-7, 7)},
		{"min", eval2(ir.OpMin, iv(0, 5), iv(2, 3)), iv(0, 3)},
		{"min one bound", eval2(ir.OpMin, top, iv(2, 3)), Interval{Hi: 3, HiOK: true}},
		{"max", eval2(ir.OpMax, iv(0, 5), iv(2, 7)), iv(2, 7)},
		{"max one bound", eval2(ir.OpMax, top, iv(2, 3)), Interval{Lo: 2, LoOK: true}},

		// Where the checker's and the dependence analyzer's former
		// copies disagreed: each keeps the tighter sound answer.
		// Go's % takes the dividend's sign, so a negative modulus
		// bounds like its magnitude.
		{"mod by negative", eval2(ir.OpMod, iv(0, 100), Point(-8)), iv(0, 7)},
		{"mod signed by negative", eval2(ir.OpMod, top, Point(-8)), iv(-7, 7)},
		// A dividend already inside [0,m) is its own remainder.
		{"mod inside the modulus", eval2(ir.OpMod, iv(2, 5), Point(8)), iv(2, 5)},
		{"mod reaching the modulus", eval2(ir.OpMod, iv(2, 8), Point(8)), iv(0, 7)},
		// Truncated division by a negative constant flips the ends.
		{"div by negative", eval2(ir.OpDiv, iv(-7, 9), Point(-2)), iv(-4, 3)},
		{"div half-open by negative", eval2(ir.OpDiv, Interval{Lo: 2, LoOK: true}, Point(-3)),
			Interval{Hi: 0, HiOK: true}},
	}
	for _, tc := range cases {
		if tc.got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, tc.got, tc.want)
		}
	}
}

func TestEvalInterval(t *testing.T) {
	n := &ir.Var{Name: "n"}
	env := map[string]Interval{"n": iv(0, 9)}
	resolve := func(name string) Interval { return env[name] }
	// 2*n + 1 over n in [0,9] = [1,19]
	e := ir.Add(ir.Mul(ir.C(2), n), ir.C(1))
	if got := EvalInterval(e, resolve); got != iv(1, 19) {
		t.Errorf("2n+1 = %s", got)
	}
	// Unknown variable evaluates to top.
	if got := EvalInterval(&ir.Var{Name: "m"}, resolve); got != (Interval{}) {
		t.Errorf("unknown var = %s", got)
	}
	// Loads are opaque.
	if got := EvalInterval(&ir.Load{}, resolve); got != (Interval{}) {
		t.Errorf("load = %s", got)
	}
}

func TestLoopRange(t *testing.T) {
	cases := []struct {
		name      string
		lo, hi    Interval
		step      int64
		rng       Interval
		wantEmpty bool
	}{
		{"up", Point(0), Point(7), 1, iv(0, 7), false},
		{"up empty", Point(5), Point(2), 1, iv(5, 2), true},
		{"up maybe empty", iv(0, 5), iv(2, 9), 2, iv(0, 9), false},
		{"down", Point(7), Point(0), -1, iv(0, 7), false},
		{"down empty", Point(2), Point(5), -1, iv(5, 2), true},
		{"up open bound", Point(0), Interval{}, 1, Interval{Lo: 0, LoOK: true}, false},
	}
	for _, tc := range cases {
		rng, empty := LoopRange(tc.lo, tc.hi, tc.step)
		if rng != tc.rng || empty != tc.wantEmpty {
			t.Errorf("%s: LoopRange = %s,%v, want %s,%v", tc.name, rng, empty, tc.rng, tc.wantEmpty)
		}
	}
}

// TestIntervalOpsContainConcrete is the domain's soundness property:
// for random intervals (half-open and unbounded ones included) and
// random members of them, every binary operator's interval result
// contains Go's concrete result.
func TestIntervalOpsContainConcrete(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// draw returns a random interval and a function drawing its members,
	// endpoints often. Small values make divisors and endpoints meet.
	draw := func() (Interval, func() int64) {
		lo := rng.Int63n(41) - 20
		width := rng.Int63n(16)
		near := func(v, sign int64) int64 {
			if rng.Intn(3) == 0 {
				return v
			}
			return v + sign*rng.Int63n(60)
		}
		switch rng.Intn(6) {
		case 0:
			return Point(lo), func() int64 { return lo }
		case 1:
			return Interval{Lo: lo, LoOK: true}, func() int64 { return near(lo, 1) }
		case 2:
			return Interval{Hi: lo, HiOK: true}, func() int64 { return near(lo, -1) }
		case 3:
			return Interval{}, func() int64 { return rng.Int63n(121) - 60 }
		}
		return iv(lo, lo+width), func() int64 {
			switch rng.Intn(4) {
			case 0:
				return lo
			case 1:
				return lo + width
			}
			return lo + rng.Int63n(width+1)
		}
	}
	ops := []ir.BinOp{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpMod, ir.OpMin, ir.OpMax}
	for trial := 0; trial < 3000; trial++ {
		a, memberA := draw()
		b, memberB := draw()
		for _, op := range ops {
			got := eval2(op, a, b)
			for k := 0; k < 8; k++ {
				x, y := memberA(), memberB()
				if (op == ir.OpDiv || op == ir.OpMod) && y == 0 {
					continue
				}
				v := evalExpr(&ir.Bin{Op: op, L: varX, R: varY}, map[string]int64{"x": x, "y": y})
				if (got.LoOK && v < got.Lo) || (got.HiOK && v > got.Hi) {
					t.Fatalf("%s %s %s = %s, but %d %s %d = %d", a, op, b, got, x, op, y, v)
				}
			}
		}
	}
}
