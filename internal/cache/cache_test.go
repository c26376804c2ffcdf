package cache

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"

	"reusetool/internal/histo"
)

func TestCapacities(t *testing.T) {
	h := Itanium2()
	l2 := h.Level("L2")
	if l2 == nil {
		t.Fatal("no L2")
	}
	if l2.CapacityBytes() != 256*1024 {
		t.Errorf("L2 capacity = %d, want 256KB", l2.CapacityBytes())
	}
	if l2.CapacityBlocks() != 2048 {
		t.Errorf("L2 blocks = %d, want 2048", l2.CapacityBlocks())
	}
	l3 := h.Level("L3")
	if l3.CapacityBytes() != 1536*1024 {
		t.Errorf("L3 capacity = %d, want 1.5MB", l3.CapacityBytes())
	}
	tlb := h.Level("TLB")
	if tlb.CapacityBlocks() != 128 || tlb.Sets != 1 {
		t.Errorf("TLB should be 128-entry fully associative")
	}
	if h.Level("L9") != nil {
		t.Error("unknown level should be nil")
	}
}

func TestFullyAssocPMissIsStep(t *testing.T) {
	tlb := Level{Name: "TLB", LineBits: 14, Sets: 1, Assoc: 128}
	if got := tlb.PMiss(127); got != 0 {
		t.Errorf("PMiss(127) = %v, want 0", got)
	}
	if got := tlb.PMiss(128); got != 1 {
		t.Errorf("PMiss(128) = %v, want 1", got)
	}
}

// exactPMiss computes the binomial tail with big.Float for verification.
func exactPMiss(d uint64, sets, assoc int) float64 {
	p := new(big.Float).Quo(big.NewFloat(1), big.NewFloat(float64(sets)))
	q := new(big.Float).Sub(big.NewFloat(1), p)
	// term_0 = q^d
	term := big.NewFloat(1)
	for i := uint64(0); i < d; i++ {
		term.Mul(term, q)
	}
	sum := new(big.Float).Set(term)
	ratio := new(big.Float).Quo(p, q)
	for k := 0; k < assoc-1; k++ {
		term.Mul(term, big.NewFloat(float64(d-uint64(k))))
		term.Quo(term, big.NewFloat(float64(k+1)))
		term.Mul(term, ratio)
		sum.Add(sum, term)
	}
	f, _ := sum.Float64()
	if f > 1 {
		f = 1
	}
	return 1 - f
}

func TestPMissMatchesExactSmall(t *testing.T) {
	l := Level{Name: "L2", LineBits: 7, Sets: 256, Assoc: 8}
	for _, d := range []uint64{0, 7, 8, 100, 500, 1000, 2048, 4096, 10000} {
		got := l.PMiss(d)
		want := exactPMiss(d, l.Sets, l.Assoc)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("PMiss(%d) = %v, want %v", d, got, want)
		}
	}
}

func TestPMissProperties(t *testing.T) {
	l := Level{Name: "L3", LineBits: 7, Sets: 2048, Assoc: 6}
	// Bounds and monotonicity.
	prev := -1.0
	for d := uint64(0); d < 1<<18; d = d*2 + 1 {
		pm := l.PMiss(d)
		if pm < 0 || pm > 1 {
			t.Fatalf("PMiss(%d) = %v out of [0,1]", d, pm)
		}
		if pm < prev-1e-12 {
			t.Fatalf("PMiss not monotone at d=%d: %v < %v", d, pm, prev)
		}
		prev = pm
	}
	// Below associativity, a reuse can never miss.
	if l.PMiss(uint64(l.Assoc)-1) != 0 {
		t.Error("PMiss below associativity should be 0")
	}
	// Far beyond capacity it must saturate at ~1.
	if pm := l.PMiss(100 * l.CapacityBlocks()); pm < 0.999999 {
		t.Errorf("PMiss far beyond capacity = %v, want ~1", pm)
	}
	// Near half capacity a set-associative cache has a small but nonzero
	// miss probability.
	pm := l.PMiss(l.CapacityBlocks() / 2)
	if pm <= 0 || pm >= 0.5 {
		t.Errorf("PMiss(capacity/2) = %v, want small positive", pm)
	}
}

func TestPMissUnderflowRegime(t *testing.T) {
	l := Level{Name: "L2", LineBits: 7, Sets: 256, Assoc: 8}
	// d large enough that (1-p)^d underflows float64: must return exactly 1
	// rather than NaN.
	got := l.PMiss(1 << 40)
	if got != 1 {
		t.Errorf("PMiss(2^40) = %v, want 1", got)
	}
}

func TestPMissQuickBounds(t *testing.T) {
	f := func(dRaw uint32, setsRaw, assocRaw uint8) bool {
		sets := 1 << (setsRaw % 12)
		assoc := 1 + int(assocRaw%16)
		l := Level{Sets: sets, Assoc: assoc}
		pm := l.PMiss(uint64(dRaw))
		return pm >= 0 && pm <= 1 && !math.IsNaN(pm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestExpectedMissesVsFullyAssoc(t *testing.T) {
	l2 := Itanium2().Levels[0]
	h := histo.New()
	h.AddN(10, 1000)                     // always hits
	h.AddN(l2.CapacityBlocks()*16, 1000) // always misses
	h.Add(histo.Cold)                    // compulsory
	fa := l2.FullyAssocMisses(h)
	sa := l2.ExpectedMisses(h)
	if fa != 1001 {
		t.Errorf("FullyAssocMisses = %v, want 1001", fa)
	}
	if math.Abs(sa-1001) > 1 {
		t.Errorf("ExpectedMisses = %v, want ~1001", sa)
	}
	// A distance at half capacity: fully-assoc says hit, set-assoc says a
	// small positive expected miss count.
	h2 := histo.New()
	h2.AddN(l2.CapacityBlocks()/2, 1000)
	if got := l2.FullyAssocMisses(h2); got != 0 {
		t.Errorf("FullyAssocMisses(half capacity) = %v, want 0", got)
	}
	if got := l2.ExpectedMisses(h2); got <= 0 || got >= 500 {
		t.Errorf("ExpectedMisses(half capacity) = %v, want small positive", got)
	}
	// Nil histogram.
	if l2.ExpectedMisses(nil) != 0 || l2.FullyAssocMisses(nil) != 0 {
		t.Error("nil histogram should predict 0 misses")
	}
}

func TestGranularitiesGroupByLineSize(t *testing.T) {
	h := Itanium2()
	grans := h.Granularities()
	if len(grans) != 2 {
		t.Fatalf("granularities = %d, want 2 (lines + pages)", len(grans))
	}
	var line, page *struct {
		thresholds []uint64
		names      []string
	}
	for _, g := range grans {
		s := &struct {
			thresholds []uint64
			names      []string
		}{g.Thresholds, g.LevelNames}
		switch g.BlockBits {
		case 7:
			line = s
		case 14:
			page = s
		}
	}
	if line == nil || page == nil {
		t.Fatal("missing granularity")
	}
	if len(line.thresholds) != 2 || line.thresholds[0] != 2048 || line.thresholds[1] != 12288 {
		t.Errorf("line thresholds = %v, want [2048 12288]", line.thresholds)
	}
	if len(page.thresholds) != 1 || page.thresholds[0] != 128 {
		t.Errorf("page thresholds = %v, want [128]", page.thresholds)
	}
	if line.names[0] != "L2" || line.names[1] != "L3" || page.names[0] != "TLB" {
		t.Errorf("level names wrong: %v %v", line.names, page.names)
	}
}

func TestScaledHierarchyPreservesRatios(t *testing.T) {
	full, scaled := Itanium2(), ScaledItanium2()
	fullRatio := float64(full.Level("L3").CapacityBytes()) / float64(full.Level("L2").CapacityBytes())
	scaledRatio := float64(scaled.Level("L3").CapacityBytes()) / float64(scaled.Level("L2").CapacityBytes())
	if math.Abs(fullRatio-scaledRatio) > 1e-9 {
		t.Errorf("L3/L2 ratio changed: %v vs %v", fullRatio, scaledRatio)
	}
	if scaled.Level("L2").CapacityBytes() >= full.Level("L2").CapacityBytes() {
		t.Error("scaled L2 should be smaller")
	}
}

func BenchmarkPMiss(b *testing.B) {
	l := Itanium2().Levels[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.PMiss(uint64(i % 100000))
	}
}

func TestUnionGranularities(t *testing.T) {
	grans := UnionGranularities(Itanium2(), Opteron())
	// Block sizes: 128B lines (Itanium), 16KB pages (Itanium), 64B lines
	// (Opteron), 4KB pages (Opteron) = 4 granularities.
	if len(grans) != 4 {
		t.Fatalf("granularities = %d, want 4", len(grans))
	}
	seen := map[uint][]string{}
	for _, g := range grans {
		seen[g.BlockBits] = g.LevelNames
	}
	if len(seen[7]) != 2 { // Itanium L2+L3 share 128B lines
		t.Errorf("128B levels = %v", seen[7])
	}
	if len(seen[6]) != 1 || seen[6][0] != "L2" {
		t.Errorf("64B levels = %v", seen[6])
	}
	// Same hierarchy twice merges thresholds under one granularity set.
	twice := UnionGranularities(Itanium2(), Itanium2())
	if len(twice) != 2 {
		t.Errorf("duplicate hierarchies should not add granularities: %d", len(twice))
	}
	if len(twice[0].Thresholds) != 4 { // L2+L3 twice
		t.Errorf("thresholds = %v", twice[0].Thresholds)
	}
}

func TestOpteronGeometry(t *testing.T) {
	h := Opteron()
	if h.Level("L2").CapacityBytes() != 1024*1024 {
		t.Errorf("Opteron L2 = %d bytes, want 1MB", h.Level("L2").CapacityBytes())
	}
	if h.Level("TLB").CapacityBlocks() != 512 {
		t.Errorf("Opteron TLB = %d entries, want 512", h.Level("TLB").CapacityBlocks())
	}
}

func TestByName(t *testing.T) {
	for name, want := range map[string]string{
		"":        "ScaledItanium2",
		"scaled":  "ScaledItanium2",
		"full":    "Itanium2",
		"opteron": "Opteron",
	} {
		h, err := ByName(name)
		if err != nil || h.Name != want {
			t.Errorf("ByName(%q) = %v, %v; want %s", name, h, err, want)
		}
	}
	_, err := ByName("pentium")
	if err == nil || err.Error() != `unknown hierarchy "pentium" (want scaled, full, or opteron)` {
		t.Errorf("ByName(pentium) error = %v", err)
	}
}
