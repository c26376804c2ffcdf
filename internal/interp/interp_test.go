package interp

import (
	"math"
	"strings"
	"testing"

	"reusetool/internal/ir"
	"reusetool/internal/trace"
)

// buildCopyLoop builds: for i in [0,N): B[i]; A[i]=   (read B, write A).
func buildCopyLoop(t *testing.T, n int64) (*ir.Info, *ir.Array, *ir.Array) {
	t.Helper()
	p := ir.NewProgram("copy")
	np := p.Param("N", n)
	a := p.AddArray("A", 8, np)
	b := p.AddArray("B", 8, np)
	i := p.Var("i")
	main := p.AddRoutine("main", "copy.f", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(np, ir.C(1)),
			ir.Do(b.Read(i), a.WriteRef(i)),
		).At(2),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return info, a, b
}

func TestRunEmitsExpectedEvents(t *testing.T) {
	info, _, _ := buildCopyLoop(t, 4)
	var rec trace.Recorder
	res, err := Run(info, nil, &rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 8 {
		t.Errorf("accesses = %d, want 8", res.Accesses)
	}
	// Events: enter routine, enter loop, 8 accesses, exit loop, exit routine.
	if len(rec.Events) != 12 {
		t.Fatalf("events = %d, want 12", len(rec.Events))
	}
	if rec.Events[0].Kind != trace.EvEnter || rec.Events[1].Kind != trace.EvEnter {
		t.Error("missing scope entries")
	}
	last := rec.Events[len(rec.Events)-1]
	if last.Kind != trace.EvExit {
		t.Error("missing final scope exit")
	}
	// Access pattern: read B then write A per iteration.
	var accesses []trace.Event
	for _, e := range rec.Events {
		if e.Kind == trace.EvAccess {
			accesses = append(accesses, e)
		}
	}
	if accesses[0].Write || !accesses[1].Write {
		t.Error("expected read-then-write per iteration")
	}
	// Unit stride in bytes for consecutive same-ref accesses.
	if accesses[2].Addr-accesses[0].Addr != 8 {
		t.Errorf("B stride = %d, want 8", accesses[2].Addr-accesses[0].Addr)
	}
}

func TestColumnMajorLayout(t *testing.T) {
	p := ir.NewProgram("cm")
	n := p.Param("N", 5)
	m := p.Param("M", 3)
	a := p.AddArray("A", 8, n, m)
	main := p.AddRoutine("main", "f", 1)
	i, j := p.Var("i"), p.Var("j")
	main.Body = []ir.Stmt{
		ir.For(j, ir.C(0), ir.Sub(m, ir.C(1)),
			ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.Do(a.Read(i, j)))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if _, err := Run(info, nil, &rec); err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	for _, e := range rec.Events {
		if e.Kind == trace.EvAccess {
			addrs = append(addrs, e.Addr)
		}
	}
	if len(addrs) != 15 {
		t.Fatalf("accesses = %d, want 15", len(addrs))
	}
	// Walking i with j fixed must be perfectly sequential: 8-byte steps.
	for k := 1; k < 5; k++ {
		if addrs[k]-addrs[k-1] != 8 {
			t.Fatalf("inner stride = %d at %d, want 8", addrs[k]-addrs[k-1], k)
		}
	}
	// Column stride is N*8 bytes.
	if addrs[5]-addrs[0] != 5*8 {
		t.Errorf("column stride = %d, want 40", addrs[5]-addrs[0])
	}
	// Layout helper agrees.
	mach, err := Layout(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := mach.ArrayStride(a, 0); got != 8 {
		t.Errorf("ArrayStride dim0 = %d", got)
	}
	if got := mach.ArrayStride(a, 1); got != 40 {
		t.Errorf("ArrayStride dim1 = %d", got)
	}
}

func TestParamOverride(t *testing.T) {
	info, _, _ := buildCopyLoop(t, 4)
	var c trace.Counter
	res, err := Run(info, map[string]int64{"N": 10}, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 20 {
		t.Errorf("accesses = %d, want 20", res.Accesses)
	}
	if _, err := Run(info, map[string]int64{"BOGUS": 1}, &c); err == nil {
		t.Error("unknown parameter should fail")
	}
}

func TestTripStats(t *testing.T) {
	p := ir.NewProgram("trips")
	n := p.Param("N", 6)
	a := p.AddArray("A", 8, n)
	i, j := p.Var("i"), p.Var("j")
	main := p.AddRoutine("main", "f", 1)
	inner := ir.For(j, ir.C(0), ir.Sub(i, ir.C(1)), ir.Do(a.Read(j))) // triangular
	outer := ir.For(i, ir.C(1), ir.Sub(n, ir.C(1)), inner)
	main.Body = []ir.Stmt{outer}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(info, nil, trace.Discard{})
	if err != nil {
		t.Fatal(err)
	}
	ot := res.Trips[outer.Scope()]
	if ot.Execs != 1 || ot.Iters != 5 {
		t.Errorf("outer trips = %+v, want 1 exec, 5 iters", ot)
	}
	it := res.Trips[inner.Scope()]
	if it.Execs != 5 || it.Iters != 1+2+3+4+5 {
		t.Errorf("inner trips = %+v, want 5 execs, 15 iters", it)
	}
	if got := res.AvgTrips(inner.Scope(), 0); got != 3 {
		t.Errorf("avg inner trips = %v, want 3", got)
	}
	if got := res.AvgTrips(999, 7); got != 7 {
		t.Errorf("AvgTrips default = %v, want 7", got)
	}
}

func TestIfAndLetAndMinMax(t *testing.T) {
	p := ir.NewProgram("guard")
	n := p.Param("N", 10)
	a := p.AddArray("A", 8, n)
	i, k := p.Var("i"), p.Var("k")
	main := p.AddRoutine("main", "f", 1)
	// for i in [0, N): k = min(i, 5); if k < 3 { A[k] }
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.Set(k, ir.Min(i, ir.C(5))),
			ir.When(ir.Lt(k, ir.C(3)), ir.Do(a.Read(k))),
		),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counter
	res, err := Run(info, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 3 { // i = 0,1,2 only
		t.Errorf("accesses = %d, want 3", res.Accesses)
	}
}

func TestElseBranch(t *testing.T) {
	p := ir.NewProgram("else")
	a := p.AddArray("A", 8, ir.C(10))
	b := p.AddArray("B", 8, ir.C(10))
	i := p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.C(9),
			ir.WhenElse(ir.Lt(i, ir.C(4)),
				[]ir.Stmt{ir.Do(a.Read(i))},
				[]ir.Stmt{ir.Do(b.Read(i))})),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if _, err := Run(info, nil, &rec); err != nil {
		t.Fatal(err)
	}
	var aCount, bCount int
	for _, e := range rec.Events {
		if e.Kind == trace.EvAccess {
			if e.Ref == 0 {
				aCount++
			} else {
				bCount++
			}
		}
	}
	if aCount != 4 || bCount != 6 {
		t.Errorf("a=%d b=%d, want 4 and 6", aCount, bCount)
	}
}

func TestCallScopes(t *testing.T) {
	p := ir.NewProgram("call")
	a := p.AddArray("A", 8, ir.C(4))
	i := p.Var("i")
	callee := p.AddRoutine("main", "f", 1) // first added becomes main...
	worker := p.AddRoutine("work", "g", 10)
	worker.Body = []ir.Stmt{ir.For(i, ir.C(0), ir.C(3), ir.Do(a.Read(i)))}
	callee.Body = []ir.Stmt{ir.CallTo(worker), ir.CallTo(worker)}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counter
	res, err := Run(info, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 8 {
		t.Errorf("accesses = %d, want 8", res.Accesses)
	}
	// Scope events: main enter/exit + 2x (work enter/exit + loop enter/exit).
	if c.Enters != 5 || c.Exits != 5 {
		t.Errorf("enters=%d exits=%d, want 5/5", c.Enters, c.Exits)
	}
	if c.MaxDepth != 3 {
		t.Errorf("max depth = %d, want 3", c.MaxDepth)
	}
}

func TestRecursionGuard(t *testing.T) {
	p := ir.NewProgram("rec")
	r := p.AddRoutine("main", "f", 1)
	r.Body = []ir.Stmt{ir.CallTo(r)}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("recursion not caught: %v", err)
	}
}

func TestBoundsChecking(t *testing.T) {
	p := ir.NewProgram("oob")
	a := p.AddArray("A", 8, ir.C(4))
	i := p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{ir.For(i, ir.C(0), ir.C(10), ir.Do(a.Read(i)))}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "out of bounds") {
		t.Errorf("OOB not caught: %v", err)
	}
}

func TestLoadAndInit(t *testing.T) {
	p := ir.NewProgram("gather")
	n := p.Param("N", 8)
	idx := p.AddDataArray("idx", 8, n)
	a := p.AddArray("A", 8, n)
	i := p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	// A[idx[i]] gather.
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.Do(a.Read(&ir.Load{Array: idx, Index: []ir.Expr{i}}))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	_, err = Run(info, nil, &rec, WithInit(func(m *Machine) error {
		if m.Param("N") != 8 {
			t.Errorf("Param(N) = %d", m.Param("N"))
		}
		if m.ArrayLen(idx) != 8 {
			t.Errorf("ArrayLen = %d", m.ArrayLen(idx))
		}
		// Reverse permutation.
		m.FillData(idx, func(i int64) int64 { return 7 - i })
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	var addrs []uint64
	for _, e := range rec.Events {
		if e.Kind == trace.EvAccess {
			addrs = append(addrs, e.Addr)
		}
	}
	// Addresses must descend by 8 (reverse order gather).
	for k := 1; k < len(addrs); k++ {
		if addrs[k-1]-addrs[k] != 8 {
			t.Fatalf("gather stride wrong at %d: %d then %d", k, addrs[k-1], addrs[k])
		}
	}
}

func TestLoadFromNonDataArrayFails(t *testing.T) {
	p := ir.NewProgram("badload")
	a := p.AddArray("A", 8, ir.C(4)) // not a data array
	b := p.AddArray("B", 8, ir.C(4))
	i := p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.C(3),
			ir.Do(b.Read(&ir.Load{Array: a, Index: []ir.Expr{i}}))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "non-data") {
		t.Errorf("load from non-data array not caught: %v", err)
	}
}

func TestZeroTripLoopStillEntersScope(t *testing.T) {
	p := ir.NewProgram("zero")
	a := p.AddArray("A", 8, ir.C(4))
	i := p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{ir.For(i, ir.C(5), ir.C(1), ir.Do(a.Read(ir.C(0))))}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var c trace.Counter
	res, err := Run(info, nil, &c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 0 {
		t.Errorf("accesses = %d, want 0", res.Accesses)
	}
	if c.Enters != 2 { // routine + loop scope entered even with zero trips
		t.Errorf("enters = %d, want 2", c.Enters)
	}
}

func TestNegativeArrayExtentFails(t *testing.T) {
	p := ir.NewProgram("neg")
	n := p.Param("N", -4)
	a := p.AddArray("A", 8, n)
	i := p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{ir.For(i, ir.C(0), ir.C(0), ir.Do(a.Read(ir.C(0))))}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(info, nil, trace.Discard{}); err == nil || !strings.Contains(err.Error(), "extent") {
		t.Errorf("negative extent not caught: %v", err)
	}
}

func TestMaxAccessesGuard(t *testing.T) {
	info, _, _ := buildCopyLoop(t, 1000)
	_, err := Run(info, nil, trace.Discard{}, WithMaxAccesses(100))
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("access budget not enforced: %v", err)
	}
	// Generous budget passes.
	if _, err := Run(info, nil, trace.Discard{}, WithMaxAccesses(1<<20)); err != nil {
		t.Errorf("generous budget should pass: %v", err)
	}
}

func TestExactArithmetic(t *testing.T) {
	const maxI, minI = math.MaxInt64, math.MinInt64
	for _, c := range []struct {
		a, b, product int64
		ok            bool
	}{
		{0, minI, 0, true}, {-1, maxI, -maxI, true}, {1 << 31, 1 << 31, 1 << 62, true},
		{1 << 32, 1 << 32, 0, false}, {-1, minI, 0, false}, {minI, -1, 0, false},
		{maxI, 2, 0, false}, {minI / 2, 2, minI, true}, {minI / 2, -2, 0, false},
	} {
		if got, ok := mulExact(c.a, c.b); ok != c.ok || (ok && got != c.product) {
			t.Errorf("mulExact(%d, %d) = %d, %v; want %d, %v", c.a, c.b, got, ok, c.product, c.ok)
		}
	}
	for _, c := range []struct {
		a, b int64
		ok   bool
	}{
		{maxI, 0, true}, {maxI, 1, false}, {minI, -1, false}, {minI, maxI, true}, {-1, minI, false}, {5, -7, true},
	} {
		if got, ok := addExact(c.a, c.b); ok != c.ok || (ok && got != c.a+c.b) {
			t.Errorf("addExact(%d, %d) = %d, %v; want ok %v", c.a, c.b, got, ok, c.ok)
		}
	}
	for _, c := range []struct {
		lo, hi, step int64
		last         uint64
		ok           bool
	}{
		{0, 9, 1, 9, true}, {0, 9, 4, 2, true}, {5, 1, 1, 0, false}, {9, 0, -3, 3, true}, {0, 1, -1, 0, false},
		{maxI - 7, maxI, 1, 7, true}, {minI, maxI, 1, math.MaxUint64, true}, {maxI, minI, minI, 1, true},
	} {
		if last, ok := lastIteration(c.lo, c.hi, c.step); last != c.last || ok != c.ok {
			t.Errorf("lastIteration(%d, %d, %d) = %d, %v; want %d, %v", c.lo, c.hi, c.step, last, ok, c.last, c.ok)
		}
	}
}
