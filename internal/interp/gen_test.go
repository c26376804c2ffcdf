package interp_test

import (
	"math/rand"
	"testing"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
)

// progGen decodes bytes into a small well-formed program for
// differential tests. Every choice consumes one byte (zero once the
// input runs out), so a fixed input always builds the same program and
// the fuzzer's minimizer shrinks a program by shrinking its input.
//
// The class it covers: nested loops with positive and negative steps,
// negative, zero-trip and outer-variable bounds, loops that rebind an
// enclosing loop's variable, Lets, Ifs with and without else, calls to
// a second routine, and subscripts mixing affine terms in the innermost
// loop variable (multiply-by-constant), Div, Mod, Min, Max and indirect
// Loads from Data arrays whose contents may lie out of range. Divisors
// may be zero. Trip counts are clamped to at most 13 per loop instance
// and loops nest at most four deep, so a program runs in microseconds.
//
// To widen the class, add a case to stmt, expr or bound; to reuse the
// generator for another pair of implementations (the engines, depend,
// persist), move it into a shared test package and call genProgram.
type progGen struct {
	in    []byte
	p     *ir.Program
	sub   *ir.Routine
	refs  []*ir.Array // arrays Access statements touch
	data  []*ir.Array // Data arrays, the targets of Loads
	vars  []*ir.Var   // every scalar: parameters, loop variables, Lets
	loops []*ir.Var   // enclosing loop variables, innermost last
	stmts int         // statements left to generate
	call  bool        // Call statements allowed here
}

const (
	genMaxLoops = 3  // loop nesting in main; sub adds at most one more
	genMaxTrip  = 12 // hi is clamped to lo ± genMaxTrip
	genMaxStmts = 14 // in main
	genSubStmts = 4
)

func (g *progGen) byte() byte {
	if len(g.in) == 0 {
		return 0
	}
	b := g.in[0]
	g.in = g.in[1:]
	return b
}

func (g *progGen) intn(n int) int { return int(g.byte()) % n }

// small returns a constant in [-12, 12].
func (g *progGen) small() int64 { return int64(int8(g.byte())) % 13 }

// genProgram builds the program in, its Data-array initializer and an
// access budget for it.
func genProgram(in []byte) (*ir.Program, func(*interp.Machine) error, uint64) {
	g := &progGen{in: in, p: ir.NewProgram("gen")}
	budget := uint64(1 << 16)
	if b := g.byte(); b%4 == 0 {
		budget = uint64(b) // sometimes tight enough to run out
	}
	n := g.p.Param("N", 1+int64(g.intn(12)))
	m := g.p.Param("M", int64(g.intn(16))-3)
	x := g.p.AddDataArray("X", 8, ir.C(16))
	y := g.p.AddDataArray("Y", 8, n)
	g.data = []*ir.Array{x, y}
	g.refs = []*ir.Array{
		g.p.AddArray("A", 8, ir.C(64)),
		g.p.AddArray("B", 4, ir.C(16), ir.Add(n, ir.C(4))),
		g.p.AddArray("C", 1, ir.C(8), ir.Add(n, ir.C(8)), ir.C(3)),
		x,
	}
	g.vars = []*ir.Var{n, m}
	for _, name := range []string{"i", "j", "k", "t", "u"} {
		g.vars = append(g.vars, g.p.Var(name))
	}

	main := g.p.AddRoutine("main", "gen.f", 1)
	g.sub = g.p.AddRoutine("sub", "gen.f", 100)
	g.stmts, g.call = genMaxStmts, true
	main.Body = g.body(0)
	g.stmts, g.call = genSubStmts, false
	g.sub.Body = g.body(genMaxLoops)

	// Data contents in [-2, 17]: some lie outside every extent.
	vals := make([]int64, 16+12)
	for i := range vals {
		vals[i] = int64(g.intn(20)) - 2
	}
	init := func(mach *interp.Machine) error {
		mach.FillData(x, func(i int64) int64 { return vals[i] })
		mach.FillData(y, func(i int64) int64 { return vals[16+i] })
		return nil
	}
	return g.p, init, budget
}

// body generates one to three statements at loop depth depth.
func (g *progGen) body(depth int) []ir.Stmt {
	var out []ir.Stmt
	for k := 1 + g.intn(3); k > 0 && g.stmts > 0; k-- {
		g.stmts--
		out = append(out, g.stmt(depth))
	}
	return out
}

func (g *progGen) stmt(depth int) ir.Stmt {
	switch c := g.intn(8); {
	case c >= 2 && c <= 4 && depth <= genMaxLoops:
		return g.loop(depth)
	case c == 5:
		v := g.vars[2+g.intn(len(g.vars)-2)] // a Let may rebind a loop variable
		return ir.Set(v, g.expr(2))
	case c == 6:
		ops := []func(l, r ir.Expr) ir.Cond{ir.Eq, ir.Ne, ir.Lt, ir.Le, ir.Gt, ir.Ge}
		cond := ops[g.intn(len(ops))](g.expr(1), g.expr(1))
		if g.intn(2) == 0 {
			return ir.When(cond, g.body(depth)...)
		}
		return ir.WhenElse(cond, g.body(depth), g.body(depth))
	case c == 7 && g.call:
		return ir.CallTo(g.sub)
	}
	return g.access()
}

func (g *progGen) loop(depth int) *ir.Loop {
	v := g.vars[2+depth%3]
	if len(g.loops) > 0 && g.intn(8) == 0 {
		v = g.loops[g.intn(len(g.loops))] // rebinds an enclosing loop's variable
	}
	step := []int64{1, 1, 1, 2, 3, -1, -1, -2}[g.intn(8)]
	lo := g.bound()
	var hi ir.Expr
	switch span := int64(g.intn(8)); {
	case g.intn(4) != 0 && step > 0:
		hi = ir.Add(lo, ir.C(span))
	case g.intn(4) != 0:
		hi = ir.Sub(lo, ir.C(span))
	case step > 0:
		hi = ir.Min(g.bound(), ir.Add(lo, ir.C(genMaxTrip)))
	default:
		hi = ir.Max(g.bound(), ir.Sub(lo, ir.C(genMaxTrip)))
	}
	g.loops = append(g.loops, v)
	var body []ir.Stmt
	if g.intn(2) == 0 {
		// A leaf: the shape plans run.
		for k := 1 + g.intn(2); k > 0; k-- {
			body = append(body, g.access())
		}
	} else {
		body = g.body(depth + 1)
	}
	g.loops = g.loops[:len(g.loops)-1]
	return ir.ForStep(v, lo, hi, ir.C(step), body...)
}

// bound generates a loop bound: a constant, a parameter, an enclosing
// loop variable with an offset, or a Load.
func (g *progGen) bound() ir.Expr {
	switch g.intn(6) {
	case 0:
		return ir.Sub(g.vars[0], ir.C(1+int64(g.intn(2))))
	case 1:
		return g.vars[1]
	case 2:
		if len(g.loops) > 0 {
			return ir.Add(g.loops[g.intn(len(g.loops))], ir.C(int64(g.intn(6))-1))
		}
	case 3:
		return g.load(0)
	}
	return ir.C(int64(g.intn(10)) - 1)
}

// access generates an Access statement of one to three references.
func (g *progGen) access() *ir.Access {
	var refs []*ir.Ref
	for k := 1 + g.intn(3); k > 0; k-- {
		a := g.refs[g.intn(len(g.refs))]
		idx := make([]ir.Expr, a.Rank())
		for d := range idx {
			idx[d] = g.subscript(d)
		}
		r := a.Read(idx...)
		r.Write = g.intn(3) == 0
		refs = append(refs, r)
	}
	return ir.Do(refs...)
}

// subscript is, most of the time for the first dimension and less
// often for the others, affine in the innermost loop variable:
// coefficient·v plus a small constant or an offset that may itself be
// anything.
func (g *progGen) subscript(dim int) ir.Expr {
	c := g.intn(8)
	if dim > 0 && c < 3 {
		c += 5
	}
	if c < 5 && len(g.loops) > 0 {
		v := g.loops[len(g.loops)-1]
		coeff := []int64{0, 1, 1, 1, 2, 3, -1}[g.intn(7)]
		off := ir.C(int64(g.intn(6)))
		if c == 4 {
			off = g.expr(1)
		}
		return ir.Add(ir.Mul(v, ir.C(coeff)), off)
	}
	if c < 7 {
		return ir.C(int64(g.intn(4)))
	}
	return g.expr(2)
}

func (g *progGen) expr(depth int) ir.Expr {
	if depth <= 0 {
		if g.intn(2) == 0 {
			return ir.C(g.small())
		}
		return g.vars[g.intn(len(g.vars))]
	}
	l := g.expr(depth - 1)
	switch g.intn(9) {
	case 0:
		return ir.Add(l, g.expr(depth-1))
	case 1:
		return ir.Sub(l, g.expr(depth-1))
	case 2:
		return ir.Mul(l, ir.C(g.small()))
	case 3:
		return ir.Mul(l, g.expr(depth-1))
	case 4:
		return divide(ir.OpDiv, l, g.divisor(depth-1))
	case 5:
		return divide(ir.OpMod, l, g.divisor(depth-1))
	case 6:
		return ir.Min(l, g.expr(depth-1))
	case 7:
		return ir.Max(l, g.expr(depth-1))
	case 8:
		return g.load(depth - 1)
	}
	return l
}

// divisor is mostly a small positive constant, and otherwise anything,
// zero included.
func (g *progGen) divisor(depth int) ir.Expr {
	if g.intn(4) != 0 {
		return ir.C(1 + int64(g.intn(4)))
	}
	return g.expr(depth)
}

// load reads a Data array, mostly at a constant or loop-variable index
// and otherwise at any index.
func (g *progGen) load(depth int) ir.Expr {
	a := g.data[g.intn(len(g.data))]
	var idx ir.Expr
	switch c := g.intn(4); {
	case c == 0 && len(g.loops) > 0:
		idx = g.loops[len(g.loops)-1]
	case c < 3:
		idx = ir.C(int64(g.intn(6)))
	default:
		idx = g.expr(depth)
	}
	return &ir.Load{Array: a, Index: []ir.Expr{idx}}
}

// divide builds l/r or l%r; a constant zero divisor is kept for run time
// instead of being folded (ir.Div would panic on it).
func divide(op ir.BinOp, l, r ir.Expr) ir.Expr {
	_, lc := l.(ir.Const)
	if rc, ok := r.(ir.Const); ok && rc == 0 && lc {
		return &ir.Bin{Op: op, L: l, R: r}
	}
	if op == ir.OpDiv {
		return ir.Div(l, r)
	}
	return ir.Mod(l, r)
}

// checkGenerated runs one generated program both ways.
func checkGenerated(t testing.TB, in []byte) (*interp.Result, error) {
	t.Helper()
	prog, init, budget := genProgram(in)
	info, err := prog.Finalize()
	if err != nil {
		t.Fatalf("generated program does not finalize: %v", err)
	}
	return runBoth(t, info, nil, interp.WithInit(init), interp.WithMaxAccesses(budget))
}

// FuzzPlannedMatchesChecked: on any generated program, a planned run
// emits the same events, trip counts and error as the walker.
func FuzzPlannedMatchesChecked(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		checkGenerated(t, in)
	})
}

// TestGeneratedProgramsPlannedMatchesChecked runs a fixed sweep of
// generated programs, and checks that the sweep still reaches the cases
// that matter: runs that finish, runs that fail, and loop instances
// that run from plans.
func TestGeneratedProgramsPlannedMatchesChecked(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ok, failed, planned int
	for n := 0; n < 2000; n++ {
		in := make([]byte, 64+rng.Intn(448))
		rng.Read(in)
		res, err := checkGenerated(t, in)
		switch {
		case err != nil:
			failed++
		case interp.PlanAccesses(res) > 0:
			planned++
			fallthrough
		default:
			ok++
		}
	}
	t.Logf("%d programs finished (%d with planned accesses), %d failed", ok, planned, failed)
	if ok < 200 || failed < 200 || planned < 100 {
		t.Errorf("sweep lost coverage: %d finished, %d planned, %d failed", ok, planned, failed)
	}
}
