package persist

import (
	"bytes"
	"encoding/gob"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/metrics"
	"reusetool/internal/reusedist"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

// collect runs the stencil and returns everything needed to compare
// reports built from live vs restored data.
func collect(t *testing.T) (*reusedist.Collector, *metrics.Report, *cache.Hierarchy) {
	t.Helper()
	prog := workloads.Stencil(64, 2)
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.ScaledItanium2()
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
	rep, err := metrics.Build(info, col, static, hier, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}
	return col, rep, hier
}

func TestRoundTripPreservesPredictions(t *testing.T) {
	prog := workloads.Stencil(64, 2)
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	hier := cache.ScaledItanium2()
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
	live, err := metrics.Build(info, col, static, hier, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}

	// Save and reload.
	var buf bytes.Buffer
	if err := Save(&buf, Snapshot(col, "stencil", nil)); err != nil {
		t.Fatal(err)
	}
	d, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Program != "stencil" {
		t.Errorf("program = %q", d.Program)
	}
	restored, err := metrics.Build(info, d.Collector(), static, hier, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"L2", "L3", "TLB"} {
		l, r := live.Level(name), restored.Level(name)
		if l.TotalMisses != r.TotalMisses {
			t.Errorf("%s total: live %v vs restored %v", name, l.TotalMisses, r.TotalMisses)
		}
		if l.ColdMisses != r.ColdMisses {
			t.Errorf("%s cold: live %v vs restored %v", name, l.ColdMisses, r.ColdMisses)
		}
		if len(l.Patterns) != len(r.Patterns) {
			t.Errorf("%s patterns: %d vs %d", name, len(l.Patterns), len(r.Patterns))
		}
		for i := range l.CarriedByScope {
			if l.CarriedByScope[i] != r.CarriedByScope[i] {
				t.Fatalf("%s carried[%d]: %v vs %v", name, i, l.CarriedByScope[i], r.CarriedByScope[i])
			}
		}
	}
}

// TestCollectOncePredictMany is the paper's workflow: one collection run
// serves predictions for a second architecture with the same line sizes
// but different capacity/associativity.
func TestCollectOncePredictMany(t *testing.T) {
	col, _, hier := collect(t)
	var buf bytes.Buffer
	if err := Save(&buf, Snapshot(col, "stencil", nil)); err != nil {
		t.Fatal(err)
	}
	d, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// A different machine: double the L2, half the L3 ways.
	other := &cache.Hierarchy{
		Name: "variant",
		Levels: []cache.Level{
			{Name: "L2", LineBits: 7, Sets: 32, Assoc: 8, Latency: 8},
			{Name: "L3", LineBits: 7, Sets: 256, Assoc: 3, Latency: 120},
			{Name: "TLB", LineBits: 12, Sets: 1, Assoc: 16, Latency: 30},
		},
	}
	// Rebuild a report against the new architecture (granularities match:
	// 128B lines + 4KB pages).
	prog := workloads.Stencil(64, 2)
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.Build(info, d.Collector(), nil, other, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}
	bigL2 := rep.Level("L2").TotalMisses
	// Same data, original architecture.
	repOrig, err := metrics.Build(info, d.Collector(), nil, hier, metrics.SetAssoc)
	if err != nil {
		t.Fatal(err)
	}
	smallL2 := repOrig.Level("L2").TotalMisses
	if bigL2 >= smallL2 {
		t.Errorf("double-size L2 should predict fewer misses: %v vs %v", bigL2, smallL2)
	}
	// Halving TLB entries must not decrease predicted TLB misses.
	if rep.Level("TLB").TotalMisses < repOrig.Level("TLB").TotalMisses {
		t.Error("smaller TLB predicted fewer misses")
	}
}

func TestVersionCheck(t *testing.T) {
	var buf bytes.Buffer
	bad := &Dataset{Version: 99}
	if err := Save(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("future version should be rejected")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage should fail")
	}
}

func TestRestoredEngineQueries(t *testing.T) {
	col, _, _ := collect(t)
	var buf bytes.Buffer
	if err := Save(&buf, Snapshot(col, "x", nil)); err != nil {
		t.Fatal(err)
	}
	d, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rcol := d.Collector()
	for i, eng := range rcol.Engines {
		orig := col.Engines[i]
		if eng.Clock() != orig.Clock() {
			t.Errorf("engine %d clock %d != %d", i, eng.Clock(), orig.Clock())
		}
		if eng.TotalCold() != orig.TotalCold() {
			t.Errorf("engine %d cold %d != %d", i, eng.TotalCold(), orig.TotalCold())
		}
		for j := range orig.Thresholds() {
			if eng.TotalMissAt(j) != orig.TotalMissAt(j) {
				t.Errorf("engine %d misses@%d %d != %d", i, j, eng.TotalMissAt(j), orig.TotalMissAt(j))
			}
		}
		if eng.DistinctBlocks() != 0 {
			t.Error("restored engine should report 0 distinct blocks")
		}
	}
}

// TestSaveBytesReproducible is the determinism contract: saving the same
// collected data must produce byte-identical files, run to run and across
// a save/load/save round trip. Before the sorted wire formats (histogram
// bins, patterns, trip stats) gob's random map iteration order made every
// file differ.
func TestSaveBytesReproducible(t *testing.T) {
	col, _, _ := collect(t)
	trips := map[trace.ScopeID]interp.TripStat{
		3: {Execs: 2, Iters: 128},
		1: {Execs: 1, Iters: 64},
		7: {Execs: 4, Iters: 16},
	}
	snap := Snapshot(col, "stencil", trips)

	var a, b bytes.Buffer
	if err := Save(&a, snap); err != nil {
		t.Fatal(err)
	}
	if err := Save(&b, snap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same snapshot produced different bytes")
	}

	// Re-collect from scratch: identical input data must still produce
	// identical bytes (no dependence on allocation or insertion history).
	col2, _, _ := collect(t)
	var c bytes.Buffer
	if err := Save(&c, Snapshot(col2, "stencil", trips)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("saves of independently collected identical data differ")
	}

	// Save -> Load -> Save must be a fixed point.
	d, err := Load(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var e bytes.Buffer
	if err := Save(&e, d); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), e.Bytes()) {
		t.Fatal("save/load/save changed the bytes")
	}
}

// legacyDataset mirrors the version-1 on-disk layout (map-valued fields,
// encoded directly) so the decoder's backward compatibility is tested
// against a faithfully reconstructed old stream.
type legacyDataset struct {
	Version int
	Program string
	Grans   []reusedist.Granularity
	Refs    [][]*reusedist.RefData
	Clocks  []uint64
	Trips   map[trace.ScopeID]interp.TripStat
}

func TestLoadVersion1Stream(t *testing.T) {
	col, _, _ := collect(t)
	snap := Snapshot(col, "stencil", map[trace.ScopeID]interp.TripStat{2: {Execs: 1, Iters: 8}})
	legacy := legacyDataset{
		Version: 1,
		Program: snap.Program,
		Grans:   snap.Grans,
		Refs:    snap.Refs,
		Clocks:  snap.Clocks,
		Trips:   snap.Trips,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	d, err := Load(&buf)
	if err != nil {
		t.Fatalf("version-1 stream failed to load: %v", err)
	}
	if d.Version != 1 || d.Program != "stencil" {
		t.Errorf("version = %d program = %q", d.Version, d.Program)
	}
	if len(d.Refs) != len(snap.Refs) {
		t.Fatalf("granularities = %d, want %d", len(d.Refs), len(snap.Refs))
	}
	rcol := d.Collector()
	for i, eng := range rcol.Engines {
		orig := col.Engines[i]
		if eng.TotalCold() != orig.TotalCold() || eng.Clock() != orig.Clock() {
			t.Errorf("engine %d: cold/clock mismatch after legacy load", i)
		}
	}
	if d.Trips[2].Iters != 8 {
		t.Errorf("trips not recovered: %+v", d.Trips)
	}
}
