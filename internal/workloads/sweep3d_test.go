package workloads

import (
	"testing"

	"reusetool/internal/interp"
	"reusetool/internal/ir"
	"reusetool/internal/scope"
	"reusetool/internal/trace"
)

func runCounted(t *testing.T, p *ir.Program) (*ir.Info, *trace.Counter, *interp.Result) {
	t.Helper()
	info := MustFinalize(p)
	var c trace.Counter
	res, err := interp.Run(info, nil, &c)
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	if c.Enters != c.Exits {
		t.Fatalf("%s: unbalanced scopes: %d enters, %d exits", p.Name, c.Enters, c.Exits)
	}
	return info, &c, res
}

func sweepCfg(n, block int64, dimIC bool) Sweep3DConfig {
	return Sweep3DConfig{N: n, Angles: 6, Moments: 4, Octants: 2, TimeSteps: 1,
		Block: block, DimInterchange: dimIC}
}

// cellVisits runs a variant and counts per-(j,k,mi) cell visits using the
// src read at line 384 (one per cell per octant, per i iteration).
func sweepAccesses(t *testing.T, cfg Sweep3DConfig) uint64 {
	t.Helper()
	p, err := Sweep3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, c, _ := runCounted(t, p)
	return c.Accesses
}

// TestSweep3DVariantsVisitSameCells: every variant performs exactly the
// same number of memory accesses — tiling only reorders the iteration
// space.
func TestSweep3DVariantsPerformSameWork(t *testing.T) {
	base := sweepAccesses(t, sweepCfg(6, 0, false))
	if base == 0 {
		t.Fatal("no accesses")
	}
	for _, block := range []int64{1, 2, 3, 6} {
		got := sweepAccesses(t, sweepCfg(6, block, false))
		if got != base {
			t.Errorf("block %d: %d accesses, want %d", block, got, base)
		}
	}
	if got := sweepAccesses(t, sweepCfg(6, 6, true)); got != base {
		t.Errorf("dimIC: %d accesses, want %d", got, base)
	}
}

// TestSweep3DCellCoverage: the original wavefront visits every (j,k,mi)
// cell exactly once per octant.
func TestSweep3DCellCoverage(t *testing.T) {
	cfg := sweepCfg(5, 0, false)
	cfg.Octants = 1
	p, err := Sweep3D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	info := MustFinalize(p)
	// Count accesses of the line-384 src read (first ref of the cell
	// work): it executes it times per cell visit.
	var rec trace.Recorder
	if _, err := interp.Run(info, nil, &rec); err != nil {
		t.Fatal(err)
	}
	// Identify the phi write at 384 (ref 0 is phi write, ref 1 is the src
	// read — count ref 1).
	var srcReads uint64
	for _, e := range rec.Expanded() {
		if e.Kind == trace.EvAccess && e.Ref == 1 {
			srcReads++
		}
	}
	wantCells := uint64(5 * 5 * 6) // jt*kt*mmi
	if srcReads != wantCells*5 {   // * it iterations
		t.Errorf("src@384 reads = %d, want %d (every cell once)", srcReads, wantCells*5)
	}
}

func TestSweep3DScopeStructure(t *testing.T) {
	p, err := Sweep3D(sweepCfg(5, 0, false))
	if err != nil {
		t.Fatal(err)
	}
	info := MustFinalize(p)
	for _, name := range []string{"tstep", "iq", "idiag", "mi", "k", "i", "n"} {
		if FindScope(info, scope.KindLoop, name) == trace.NoScope {
			t.Errorf("missing loop scope %q", name)
		}
	}
	ts := FindScope(info, scope.KindLoop, "tstep")
	if !info.Scopes.Node(ts).TimeStep {
		t.Error("tstep not marked as time-step loop")
	}
	// idiag is inside iq.
	idiag := FindScope(info, scope.KindLoop, "idiag")
	iq := FindScope(info, scope.KindLoop, "iq")
	if !info.Scopes.IsAncestor(iq, idiag) {
		t.Error("iq should enclose idiag")
	}
}

func TestSweep3DBlockedScopeStructure(t *testing.T) {
	p, err := Sweep3D(sweepCfg(5, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	info := MustFinalize(p)
	mib := FindScope(info, scope.KindLoop, "mib")
	idiag := FindScope(info, scope.KindLoop, "idiag")
	mi := FindScope(info, scope.KindLoop, "mi")
	if mib == trace.NoScope {
		t.Fatal("missing mib loop")
	}
	if !info.Scopes.IsAncestor(mib, idiag) {
		t.Error("mib should enclose idiag in the tiled variant")
	}
	if !info.Scopes.IsAncestor(idiag, mi) {
		t.Error("idiag should enclose mi in the tiled variant")
	}
}

func TestSweep3DDimInterchangeChangesLayout(t *testing.T) {
	pa, err := Sweep3D(sweepCfg(5, 6, false))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := Sweep3D(sweepCfg(5, 6, true))
	if err != nil {
		t.Fatal(err)
	}
	infoA, infoB := MustFinalize(pa), MustFinalize(pb)
	ma, _ := interp.Layout(infoA, nil)
	mb, _ := interp.Layout(infoB, nil)
	var srcA, srcB *ir.Array
	for _, a := range infoA.Prog.Arrays {
		if a.Name == "src" {
			srcA = a
		}
	}
	for _, a := range infoB.Prog.Arrays {
		if a.Name == "src" {
			srcB = a
		}
	}
	// Original: dim 1 is j (stride it*8). Interchanged: dim 1 is n.
	if ma.ArrayStride(srcA, 1) != 5*8 {
		t.Errorf("original src dim1 stride = %d, want 40", ma.ArrayStride(srcA, 1))
	}
	if mb.ArrayStride(srcB, 1) != 5*8 {
		t.Errorf("interchanged src dim1 stride = %d, want 40", mb.ArrayStride(srcB, 1))
	}
	// Total sizes match (same element count either way).
	if la, lb := ma.ArrayLen(srcA), mb.ArrayLen(srcB); la != lb {
		t.Errorf("src sizes differ: %d vs %d", la, lb)
	}
}

func TestSweep3DVariantNames(t *testing.T) {
	cases := map[string]Sweep3DConfig{
		"Original":     sweepCfg(8, 0, false),
		"Block size 2": sweepCfg(8, 2, false),
		"Blk6+dimIC":   sweepCfg(8, 6, true),
	}
	for want, cfg := range cases {
		if got := cfg.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
	vs := Sweep3DVariants(8)
	if len(vs) != 6 {
		t.Fatalf("variants = %d, want 6", len(vs))
	}
	if vs[0].Name() != "Original" || vs[5].Name() != "Blk6+dimIC" {
		t.Errorf("variant order wrong: %s ... %s", vs[0].Name(), vs[5].Name())
	}
}

func TestSweep3DInvalidConfigs(t *testing.T) {
	bad := []Sweep3DConfig{
		{N: 1, Angles: 6, Moments: 4, Octants: 8, TimeSteps: 1},
		{N: 8, Angles: 6, Moments: 4, Octants: 8, TimeSteps: 1, Block: 7},
		{N: 8, Angles: 6, Moments: 4, Octants: 8, TimeSteps: 1, Block: -1},
		{N: 8, Angles: 0, Moments: 4, Octants: 8, TimeSteps: 1},
	}
	for _, cfg := range bad {
		if _, err := Sweep3D(cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
}
