package advise

import (
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/depend"
	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/reusedist"
	"reusetool/internal/staticanalysis"
)

func tinyHier() *cache.Hierarchy {
	return &cache.Hierarchy{
		Name:   "tiny",
		Levels: []cache.Level{{Name: "C", LineBits: 6, Sets: 1, Assoc: 8, Latency: 10}},
	}
}

func report(t *testing.T, p *ir.Program, init func(*interp.Machine) error) *metrics.Report {
	t.Helper()
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := tinyHier()
	col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{})
	var opts []interp.Option
	if init != nil {
		opts = append(opts, interp.WithInit(init))
	}
	run, err := interp.Run(info, nil, col, opts...)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.Layout(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	static := staticanalysis.Analyze(info, mach, staticanalysis.TripsFromRun(run, 1))
	rep, err := metrics.Build(info, col, static, hier, metrics.FullyAssoc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func kinds(recs []Recommendation) map[Kind]bool {
	m := map[Kind]bool{}
	for _, r := range recs {
		m[r.Kind] = true
	}
	return m
}

// TestTableI_TimeStepRule: reuse carried by a marked time-step loop.
func TestTableI_TimeStepRule(t *testing.T) {
	p := ir.NewProgram("ts")
	n := p.Param("N", 64)
	a := p.AddArray("A", 8, ir.Mul(n, ir.C(8)))
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(tv, ir.C(0), ir.C(4),
			ir.For(i, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.Read(i))),
		).AsTimeStep(),
	}
	recs := AdviseWith(report(t, p, nil), nil, "C", 0.05)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	if recs[0].Kind != KindTimeSkew {
		t.Errorf("top advice = %v, want time-skew", recs[0].Kind)
	}
	if !strings.Contains(recs[0].Rationale, "time-step") {
		t.Errorf("rationale = %q", recs[0].Rationale)
	}
}

// TestTableI_InterchangeRule: Figure 1(a) — spatial reuse carried by the
// outer loop of the same nest.
func TestTableI_InterchangeRule(t *testing.T) {
	p := ir.NewProgram("fig1")
	n := p.Param("N", 64)
	m := p.Param("M", 64)
	a := p.AddArray("A", 8, n, m)
	i, j := p.Var("i"), p.Var("j")
	main := p.AddRoutine("main", "f", 1)
	// Row-wise walk over a column-major array: inner j, outer i.
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.For(j, ir.C(0), ir.Sub(m, ir.C(1)),
				ir.Do(a.Read(i, j)))),
	}
	recs := AdviseWith(report(t, p, nil), nil, "C", 0.05)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	ks := kinds(recs)
	if !ks[KindInterchange] {
		t.Errorf("expected interchange advice, got %+v", recs)
	}
}

// TestTableI_FuseRule: producer and consumer loops in one routine.
func TestTableI_FuseRule(t *testing.T) {
	p := ir.NewProgram("fuse")
	n := p.Param("N", 64)
	a := p.AddArray("A", 8, ir.Mul(n, ir.C(8)))
	i, j := p.Var("i"), p.Var("j")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.WriteRef(i))),
		ir.For(j, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.Read(j))),
	}
	recs := AdviseWith(report(t, p, nil), nil, "C", 0.05)
	ks := kinds(recs)
	if !ks[KindFuse] {
		t.Errorf("expected fuse advice, got %+v", recs)
	}
	// Rationale names fusing.
	for _, r := range recs {
		if r.Kind == KindFuse && !strings.Contains(r.Rationale, "fuse") {
			t.Errorf("fuse rationale = %q", r.Rationale)
		}
	}
}

// TestTableI_StripMineRule: the consumer loop lives in a callee, like
// GTC's pushi/gcmotion.
func TestTableI_StripMineRule(t *testing.T) {
	p := ir.NewProgram("stripmine")
	n := p.Param("N", 64)
	a := p.AddArray("A", 8, ir.Mul(n, ir.C(8)))
	i, j := p.Var("i"), p.Var("j")
	main := p.AddRoutine("main", "f", 1)
	callee := p.AddRoutine("gcmotion", "g.c", 10)
	callee.Body = []ir.Stmt{
		ir.For(j, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.Read(j))),
	}
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.WriteRef(i))),
		ir.CallTo(callee),
	}
	recs := AdviseWith(report(t, p, nil), nil, "C", 0.05)
	ks := kinds(recs)
	if !ks[KindStripMineFuse] {
		t.Errorf("expected strip-mine advice, got %+v", recs)
	}
}

// TestTableI_ReorderRule: irregular self-reuse through an index array.
func TestTableI_ReorderRule(t *testing.T) {
	p := ir.NewProgram("reorder")
	n := p.Param("N", 512)
	idx := p.AddDataArray("idx", 8, n)
	a := p.AddArray("A", 8, n)
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	gatherLoop := ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
		ir.Do(a.Read(&ir.Load{Array: idx, Index: []ir.Expr{i}})))
	main.Body = []ir.Stmt{ir.For(tv, ir.C(0), ir.C(2), gatherLoop)}
	rep := report(t, p, func(m *interp.Machine) error {
		nn := m.Param("N")
		// Non-injective gather: k and k+64 hit the same element, with 63
		// other lines touched in between, so the i loop itself carries
		// long indirect reuses.
		m.FillData(idx, func(k int64) int64 { return (k * 8) % nn })
		return nil
	})
	recs := AdviseWith(rep, nil, "C", 0.02)
	ks := kinds(recs)
	if !ks[KindReorder] {
		t.Errorf("expected reorder advice, got %+v", recs)
	}
}

// TestTableI_SplitArrayRule: AoS field walk produces fragmentation advice.
func TestTableI_SplitArrayRule(t *testing.T) {
	p := ir.NewProgram("aos")
	n := p.Param("N", 512)
	zion := p.AddArray("zion", 8, ir.C(7), n)
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(tv, ir.C(0), ir.C(2),
			ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.Do(zion.Read(ir.C(2), i)))),
	}
	recs := AdviseWith(report(t, p, nil), nil, "C", 0.05)
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	var split *Recommendation
	for k := range recs {
		if recs[k].Kind == KindSplitArray {
			split = &recs[k]
		}
	}
	if split == nil {
		t.Fatalf("expected split-array advice, got %+v", recs)
	}
	if split.Array != "zion" {
		t.Errorf("split target = %q, want zion", split.Array)
	}
	if !strings.Contains(split.Rationale, "SoA") {
		t.Errorf("rationale = %q", split.Rationale)
	}
}

func TestAdviseRankingAndThreshold(t *testing.T) {
	p := ir.NewProgram("rank")
	n := p.Param("N", 64)
	a := p.AddArray("A", 8, ir.Mul(n, ir.C(8)))
	b := p.AddArray("B", 8, ir.C(8)) // tiny array, negligible misses
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(tv, ir.C(0), ir.C(4),
			ir.For(i, ir.C(0), ir.Sub(ir.Mul(n, ir.C(8)), ir.C(1)), ir.Do(a.Read(i))),
			ir.For(i, ir.C(0), ir.C(7), ir.Do(b.Read(i))),
		),
	}
	rep := report(t, p, nil)
	recs := AdviseWith(rep, nil, "C", 0.05)
	for k := 1; k < len(recs); k++ {
		if recs[k].Misses > recs[k-1].Misses {
			t.Fatal("recommendations not ranked by misses")
		}
	}
	for _, r := range recs {
		if r.Share < 0.05 {
			t.Errorf("recommendation below threshold: %+v", r)
		}
	}
	// Unknown level yields nothing.
	if got := AdviseWith(rep, nil, "XX", 0.05); got != nil {
		t.Errorf("unknown level should return nil, got %v", got)
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		KindSplitArray:    "split-array",
		KindReorder:       "reorder",
		KindInterchange:   "interchange/blocking",
		KindFuse:          "fuse",
		KindStripMineFuse: "strip-mine+fuse",
		KindTimeSkew:      "time-skew/intrinsic",
		KindGeneral:       "general",
		KindIntrinsic:     "intrinsic",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestDuplicateRecommendationsMerge: several references to one array in
// the same loop must produce one merged recommendation, not one per
// reference.
func TestDuplicateRecommendationsMerge(t *testing.T) {
	p := ir.NewProgram("dup")
	n := p.Param("N", 64)
	m := p.Param("M", 64)
	a := p.AddArray("A", 8, n, m)
	i, j := p.Var("i"), p.Var("j")
	main := p.AddRoutine("main", "f", 1)
	// Two separate references to A per iteration, row-major walk.
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.For(j, ir.C(0), ir.Sub(m, ir.C(1)),
				ir.Do(a.Read(i, j), a.WriteRef(i, j)))),
	}
	recs := AdviseWith(report(t, p, nil), nil, "C", 0.01)
	var interchange int
	for _, r := range recs {
		if r.Kind == KindInterchange {
			interchange++
		}
	}
	if interchange != 1 {
		t.Errorf("interchange recommendations = %d, want 1 (merged)", interchange)
	}
	// The merged recommendation addresses essentially all misses.
	if len(recs) == 0 || recs[0].Share < 0.8 {
		t.Errorf("merged share = %v, want the loop's full miss share", recs)
	}
}

// reportInfo is report plus the finalized program, for tests that also
// run the dependence analyzer.
func reportInfo(t *testing.T, p *ir.Program) (*ir.Info, *metrics.Report) {
	t.Helper()
	info, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := tinyHier()
	col := reusedist.NewCollectorWith(hier.Granularities(), reusedist.Config{})
	run, err := interp.Run(info, nil, col)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.Layout(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	static := staticanalysis.Analyze(info, mach, staticanalysis.TripsFromRun(run, 1))
	rep, err := metrics.Build(info, col, static, hier, metrics.FullyAssoc)
	if err != nil {
		t.Fatal(err)
	}
	return info, rep
}

// TestAdviseWithLegality: the Fig 1 style nest gets interchange advice
// with a Legal verdict (the only dependence is same-instance), and the
// nil-analysis path leaves verdicts unknown.
func TestAdviseWithLegality(t *testing.T) {
	p := ir.NewProgram("legal")
	n := p.Param("N", 64)
	m := p.Param("M", 64)
	a := p.AddArray("A", 8, n, m)
	i, j := p.Var("i"), p.Var("j")
	main := p.AddRoutine("main", "f", 1)
	main.Body = []ir.Stmt{
		ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
			ir.For(j, ir.C(0), ir.Sub(m, ir.C(1)),
				ir.Do(a.Read(i, j), a.WriteRef(i, j)))),
	}
	info, rep := reportInfo(t, p)

	for _, r := range AdviseWith(rep, nil, "C", 0.05) {
		if r.Legality != depend.LegalityUnknown || r.LegalityNote != "" {
			t.Errorf("Advise without analysis set legality %v (%q)", r.Legality, r.LegalityNote)
		}
	}

	recs := AdviseWith(rep, depend.Analyze(info, nil), "C", 0.05)
	found := false
	for _, r := range recs {
		if r.Kind != KindInterchange {
			continue
		}
		found = true
		if r.Legality != depend.Legal {
			t.Errorf("interchange legality = %v (%q), want legal", r.Legality, r.LegalityNote)
		}
		if r.LegalityNote == "" {
			t.Error("interchange legality note is empty")
		}
	}
	if !found {
		t.Fatalf("no interchange recommendation in %+v", recs)
	}
}

// TestTimeSkewDowngradedToIntrinsic: reuse carried by a time-step loop
// whose dependence has no constant inner distance must be reported as
// intrinsic, not as a time-skewing recommendation.
func TestTimeSkewDowngradedToIntrinsic(t *testing.T) {
	p := ir.NewProgram("skewblock")
	n := p.Param("N", 256)
	a := p.AddArray("A", 8, n)
	tv, i := p.Var("t"), p.Var("i")
	main := p.AddRoutine("main", "f", 1)
	// The write runs over the array mirrored, so the write->read
	// dependence distance on i varies with i: no skew aligns it.
	main.Body = []ir.Stmt{
		ir.For(tv, ir.C(0), ir.C(7),
			ir.For(i, ir.C(0), ir.Sub(n, ir.C(1)),
				ir.Do(a.Read(i), a.WriteRef(ir.Sub(ir.Sub(n, ir.C(1)), i)))),
		).AsTimeStep(),
	}
	info, rep := reportInfo(t, p)
	recs := AdviseWith(rep, depend.Analyze(info, nil), "C", 0.05)
	ks := kinds(recs)
	if ks[KindTimeSkew] {
		t.Errorf("skew-blocked pattern still recommends time skewing: %+v", recs)
	}
	if !ks[KindIntrinsic] {
		t.Errorf("expected an intrinsic recommendation, got %+v", recs)
	}
	for _, r := range recs {
		if r.Kind == KindIntrinsic {
			if r.Legality != depend.Illegal {
				t.Errorf("intrinsic legality = %v, want illegal", r.Legality)
			}
			if !strings.Contains(r.Rationale, "intrinsic") {
				t.Errorf("intrinsic rationale %q", r.Rationale)
			}
		}
	}
}
