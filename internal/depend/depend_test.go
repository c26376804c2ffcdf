package depend

import (
	"maps"
	"strings"
	"testing"

	"reusetool/internal/ir"
)

func TestStrongSIVForcedDistance(t *testing.T) {
	p := ir.NewProgram("siv")
	n := p.Param("N", 100)
	i := p.Var("i")
	a := p.AddArray("A", 8, n)
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.Do(a.WriteRef(i), a.Read(ir.Sub(i, ir.C(1))))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	d := an.Pair(0, 1)
	if d == nil || d.Unknown {
		t.Fatalf("want flow dep, got %v", d)
	}
	if d.Kind != Flow {
		t.Errorf("kind = %v, want flow", d.Kind)
	}
	if len(d.Vectors) != 1 {
		t.Fatalf("vectors = %v, want exactly one", d.Vectors)
	}
	v := d.Vectors[0]
	if v.Dirs[0] != DirLT || !v.Known[0] || v.Dist[0] != 1 {
		t.Errorf("vector %v dist %v known %v, want (<) dist 1", v, v.Dist, v.Known)
	}
}

func TestNegativeStepLoop(t *testing.T) {
	p := ir.NewProgram("neg")
	n := p.Param("N", 100)
	i := p.Var("i")
	a := p.AddArray("A", 8, n)
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.ForStep(i, ir.Sub(n, ir.C(1)), ir.C(0), ir.C(-1),
			ir.Do(a.WriteRef(i), a.Read(ir.Sub(i, ir.C(1))))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	d := an.Pair(0, 1)
	if d == nil || d.Unknown {
		t.Fatalf("want dep, got %v", d)
	}
	if len(d.Vectors) != 1 {
		t.Fatalf("vectors = %v, want one", d.Vectors)
	}
	// Downward loop: A[i-1] is read one iteration EARLIER than A[i-1]
	// is written (larger values run first), so the destination is
	// earlier: direction '>' with iteration distance -1.
	v := d.Vectors[0]
	if v.Dirs[0] != DirGT || !v.Known[0] || v.Dist[0] != -1 {
		t.Errorf("vector %v dist %v, want (>) dist -1", v, v.Dist)
	}
}

func TestZIVAndGCD(t *testing.T) {
	p := ir.NewProgram("ziv")
	n := p.Param("N", 100)
	i := p.Var("i")
	a := p.AddArray("A", 8, n)
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.C(10),
			ir.Do(
				a.WriteRef(ir.C(0)),                         // 0
				a.Read(ir.C(1)),                             // 1
				a.Read(ir.C(0)),                             // 2
				a.WriteRef(ir.Mul(ir.C(2), i)),              // 3: even
				a.Read(ir.Add(ir.Mul(ir.C(2), i), ir.C(1))), // 4: odd
			)),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	if d := an.Pair(0, 1); d != nil {
		t.Errorf("A[0] vs A[1]: want independent, got %v", d)
	}
	if d := an.Pair(0, 2); d == nil || len(d.Vectors) == 0 {
		t.Errorf("A[0] write vs A[0] read: want dep, got %v", d)
	}
	if d := an.Pair(3, 4); d != nil {
		t.Errorf("A[2i] vs A[2i+1]: GCD should prove independence, got %v", d)
	}
}

func TestBanerjeeBoundsExcludeFarOffsets(t *testing.T) {
	p := ir.NewProgram("bounds")
	i := p.Var("i")
	a := p.AddArray("A", 8, ir.C(200))
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.C(9),
			ir.Do(a.WriteRef(i), a.Read(ir.Add(i, ir.C(50))))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	// The forced distance 50 exceeds the trip count 10: no overlap.
	if d := an.Pair(0, 1); d != nil {
		t.Errorf("A[i] vs A[i+50] over 10 iterations: want independent, got %v", d)
	}
}

func TestNonAffineSubscriptsAreUnknownNeverLegal(t *testing.T) {
	subs := []struct {
		name string
		sub  func(i, j *ir.Var, idx *ir.Array) ir.Expr
	}{
		{"mod", func(i, j *ir.Var, _ *ir.Array) ir.Expr { return ir.Mod(j, ir.C(7)) }},
		{"div", func(i, j *ir.Var, _ *ir.Array) ir.Expr { return ir.Div(j, ir.C(2)) }},
		{"min", func(i, j *ir.Var, _ *ir.Array) ir.Expr { return ir.Min(i, j) }},
		{"max", func(i, j *ir.Var, _ *ir.Array) ir.Expr { return ir.Max(i, j) }},
		{"load", func(i, j *ir.Var, idx *ir.Array) ir.Expr { return &ir.Load{Array: idx, Index: []ir.Expr{j}} }},
	}
	for _, tc := range subs {
		t.Run(tc.name, func(t *testing.T) {
			// Rebuild with the right interned vars.
			p := ir.NewProgram("na")
			n := p.Param("N", 64)
			i, j := p.Var("i"), p.Var("j")
			a := p.AddArray("A", 8, n)
			idx := p.AddDataArray("idx", 8, n)
			main := p.AddRoutine("main", "t.loop", 1)
			outer := ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.For(j, ir.C(0), ir.Sub(n, ir.C(1)),
					ir.Do(a.WriteRef(tc.sub(i, j, idx)), a.Read(j))))
			main.Body = []ir.Stmt{outer}
			info, err := p.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			an := Analyze(info, nil)
			d := an.Pair(0, 1)
			if d == nil || !d.Unknown {
				t.Fatalf("%s subscript: want Unknown dep, got %v", tc.name, d)
			}
			if v := an.Interchange(outer); v.Legality == Legal {
				t.Errorf("%s subscript: interchange must not be Legal, got %v (%s)", tc.name, v.Legality, v.Note)
			}
		})
	}
}

func TestCoupledSubscripts(t *testing.T) {
	p := ir.NewProgram("coupled")
	n := p.Param("N", 32)
	i := p.Var("i")
	a := p.AddArray("A", 8, n, n)
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(2)),
			ir.Do(
				a.WriteRef(i, ir.Add(i, ir.C(1))), // 0: A[i][i+1]
				a.Read(i, i),                      // 1: A[i][i]
			)),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	// A[i,i+1] and A[j,j] coincide only if i=j and i+1=j: the two
	// forced distances conflict, so the pair is independent.
	if d := an.Pair(0, 1); d != nil {
		t.Errorf("coupled diagonals: want independent, got %v", d)
	}
	// A[i][i+1] against itself only matches the same instance.
	if d := an.Pair(0, 0); d != nil {
		t.Errorf("diagonal self-pair: want no dependence, got %v", d)
	}
}

func TestInterchangeBlockedByCrossedDirections(t *testing.T) {
	p := ir.NewProgram("skewed")
	n := p.Param("N", 16)
	i, j := p.Var("i"), p.Var("j")
	a := p.AddArray("A", 8, n, n)
	main := p.AddRoutine("main", "t.loop", 1)
	inner := ir.For(j, ir.C(1), ir.Sub(n, ir.C(2)),
		ir.Do(a.WriteRef(i, j), a.Read(ir.Sub(i, ir.C(1)), ir.Add(j, ir.C(1)))))
	outer := ir.For(i, ir.C(1), ir.Sub(n, ir.C(1)), inner)
	main.Body = []ir.Stmt{outer}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	d := an.Pair(0, 1)
	if d == nil || d.Unknown || len(d.Vectors) != 1 {
		t.Fatalf("want one exact vector, got %v", d)
	}
	if got := d.Vectors[0].String(); got != "(<,>)" {
		t.Fatalf("vector = %s, want (<,>)", got)
	}
	v := an.Interchange(outer)
	if v.Legality != Illegal || v.Blocking == nil || v.Vector == nil {
		t.Errorf("interchange of (<,>) dep: want Illegal with rationale, got %v (%s)", v.Legality, v.Note)
	}
	if !strings.Contains(v.Note, "j") {
		t.Errorf("note should name the crossing loop: %s", v.Note)
	}
	// The same crossed dependence has a constant distance on j, so
	// time-skewing i against j is possible.
	ts := an.TimeSkew(outer)
	if ts.Legality != Legal || !strings.Contains(ts.Note, "skew") {
		t.Errorf("time skew: want Legal with skew note, got %v (%s)", ts.Legality, ts.Note)
	}
}

func TestTimeSkewBlockedByVaryingDistance(t *testing.T) {
	p := ir.NewProgram("noskew")
	n := p.Param("N", 16)
	tv, i := p.Var("t"), p.Var("i")
	a := p.AddArray("A", 8, n)
	main := p.AddRoutine("main", "t.loop", 1)
	tl := ir.For(tv, ir.C(0), ir.C(7),
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.Do(a.WriteRef(i), a.Read(ir.C(0)))))
	main.Body = []ir.Stmt{tl}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	// A[0] is read at every i while A[i] writes it only at i=0: the
	// time-carried dependence has no constant distance on i.
	v := an.TimeSkew(tl)
	if v.Legality != Illegal {
		t.Errorf("time skew over varying distance: want Illegal, got %v (%s)", v.Legality, v.Note)
	}
}

func TestFuseLegality(t *testing.T) {
	build := func(readOff int64) (*Analysis, *ir.Loop, *ir.Loop) {
		p := ir.NewProgram("fuse")
		n := p.Param("N", 32)
		i, j := p.Var("i"), p.Var("j")
		a := p.AddArray("A", 8, ir.Add(n, ir.C(2)))
		b := p.AddArray("B", 8, ir.Add(n, ir.C(2)))
		main := p.AddRoutine("main", "t.loop", 1)
		l1 := ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)), ir.Do(a.WriteRef(i)))
		l2 := ir.For(j, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.Do(b.WriteRef(j), a.Read(ir.Add(j, ir.C(readOff)))))
		main.Body = []ir.Stmt{l1, l2}
		info, err := p.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(info, nil), l1, l2
	}
	an, l1, l2 := build(0)
	if v := an.Fuse(l1, l2); v.Legality != Legal {
		t.Errorf("aligned producer/consumer: want Legal, got %v (%s)", v.Legality, v.Note)
	}
	an, l1, l2 = build(1)
	// Fused, iteration j would read A[j+1] before iteration j+1 writes
	// it: a fusion-preventing backward dependence.
	if v := an.Fuse(l1, l2); v.Legality != Illegal {
		t.Errorf("forward-offset consumer: want Illegal, got %v (%s)", v.Legality, v.Note)
	}
	if v := an.StripMine(l1); v.Legality != Legal {
		t.Errorf("strip-mine: want Legal, got %v", v.Legality)
	}
}

func TestLetSubstitutionAndUnknownVars(t *testing.T) {
	p := ir.NewProgram("let")
	n := p.Param("N", 16)
	i, s := p.Var("i"), p.Var("s")
	a := p.AddArray("A", 8, ir.Mul(n, ir.C(2)))
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.Set(s, ir.Add(i, ir.C(3))),
			ir.Do(a.WriteRef(s), a.Read(ir.Add(i, ir.C(2))))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	// s = i+3 substitutes exactly: A[i+3] vs A[i+2] is a distance-1
	// dependence, not Unknown.
	d := an.Pair(0, 1)
	if d == nil || d.Unknown || len(d.Vectors) != 1 || !d.Vectors[0].Known[0] {
		t.Fatalf("let-substituted pair: want exact distance dep, got %v", d)
	}

	// An accumulator (s = s+1) is opaque: pairs become Unknown.
	p2 := ir.NewProgram("acc")
	n2 := p2.Param("N", 16)
	i2, s2 := p2.Var("i"), p2.Var("s")
	a2 := p2.AddArray("A", 8, ir.Mul(n2, ir.C(4)))
	main2 := p2.AddRoutine("main", "t.loop", 1)
	main2.Body = []ir.Stmt{
		ir.Set(s2, ir.C(0)),
		ir.For(i2, ir.C(0), ir.Sub(n2, ir.C(1)),
			ir.Set(s2, ir.Add(s2, ir.C(1))),
			ir.Do(a2.WriteRef(s2), a2.Read(i2))),
	}
	info2, err := p2.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an2 := Analyze(info2, nil)
	d2 := an2.Pair(0, 1)
	if d2 == nil || !d2.Unknown {
		t.Fatalf("accumulator subscript: want Unknown, got %v", d2)
	}
}

func TestUnconstrainedLoopsReportDirAny(t *testing.T) {
	p := ir.NewProgram("any")
	n := p.Param("N", 8)
	i, j := p.Var("i"), p.Var("j")
	a := p.AddArray("A", 8, n)
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.For(j, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.Do(a.WriteRef(j)))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	// A[j] rewrites the same element on every outer iteration: j is
	// pinned to '=' by the forced zero distance, i is unconstrained.
	d := an.Pair(0, 0)
	if d == nil || d.Unknown || len(d.Vectors) != 1 {
		t.Fatalf("self output dep: got %v", d)
	}
	if got := d.Vectors[0].String(); got != "(*,=)" {
		t.Errorf("vector = %s, want (*,=)", got)
	}
	if !an.Covers(0, 0) {
		t.Error("Covers must report the self pair")
	}
}

// TestStaleBindingsAreForgotten: t = i is bound in the first loop, so
// in the second loop, which reuses the name i, A[t] is the fixed A[N-1]
// rather than A[i]. Every iteration writes that one element: a self
// output dependence, which substituting t by i would hide.
func TestStaleBindingsAreForgotten(t *testing.T) {
	p := ir.NewProgram("stale")
	n := p.Param("N", 8)
	i, tv := p.Var("i"), p.Var("t")
	a := p.AddArray("A", 8, n)
	b := p.AddArray("B", 8, n)
	main := p.AddRoutine("main", "t.loop", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)), ir.Set(tv, i), ir.Do(b.Read(i))),
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)), ir.Do(a.WriteRef(tv), a.Read(i))),
	}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	if subs := an.Subscripts(1); len(subs) != 1 || subs[0].String() != "t" {
		t.Errorf("A[t] subscripts = %v, want [t]", subs)
	}
	if !an.Covers(1, 1) {
		t.Errorf("A[t] writes one element on every iteration, but no self dependence: %v", an.Pair(1, 1))
	}
	if !an.Covers(1, 2) {
		t.Errorf("A[t] and A[i] meet at i = N-1, but no dependence: %v", an.Pair(1, 2))
	}
}

// TestRebound lists Let targets and loop variables at any depth, in
// every body given and in every routine they call, recursion included.
func TestRebound(t *testing.T) {
	p := ir.NewProgram("rebound")
	n := p.Param("N", 8)
	i, j, k, s, u, v := p.Var("i"), p.Var("j"), p.Var("k"), p.Var("s"), p.Var("u"), p.Var("v")
	a := p.AddArray("A", 8, n)
	sub := p.AddRoutine("sub", "t.loop", 20)
	sub.Body = []ir.Stmt{ir.Set(v, ir.C(2)), ir.CallTo(sub)}
	then := []ir.Stmt{ir.For(i, ir.C(0), n, ir.Set(s, i), ir.For(j, ir.C(0), n, ir.Do(a.Read(j))))}
	els := []ir.Stmt{ir.When(ir.Lt(n, ir.C(4)), ir.Set(u, ir.C(1))), ir.Do(a.Read(k)), ir.CallTo(sub)}
	got := Rebound(then, els)
	want := map[string]bool{"i": true, "j": true, "s": true, "u": true, "v": true}
	if !maps.Equal(got, want) {
		t.Errorf("Rebound = %v, want %v", got, want)
	}
}

// TestCallForgetsCalleeBindings: all routines share one variable
// namespace, so once a routine that binds t returns, t = 0 no longer
// holds and A[t] after the call is not A[0].
func TestCallForgetsCalleeBindings(t *testing.T) {
	p := ir.NewProgram("call")
	n := p.Param("N", 8)
	tv := p.Var("t")
	a := p.AddArray("A", 8, n)
	main := p.AddRoutine("main", "t.loop", 1)
	sub := p.AddRoutine("sub", "t.loop", 20)
	sub.Body = []ir.Stmt{ir.Set(tv, ir.C(5))}
	main.Body = []ir.Stmt{ir.Set(tv, ir.C(0)), ir.Do(a.WriteRef(tv)), ir.CallTo(sub), ir.Do(a.Read(tv))}
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	an := Analyze(info, nil)
	if subs := an.Subscripts(0); len(subs) != 1 || subs[0].String() != "0" {
		t.Errorf("A[t] before the call: subscripts %v, want [0]", subs)
	}
	if subs := an.Subscripts(1); len(subs) != 1 || subs[0].String() != "t" {
		t.Errorf("A[t] after the call: subscripts %v, want [t]", subs)
	}
}
