package reusedist

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"reusetool/internal/histo"
	"reusetool/internal/trace"
)

// scan emits accesses to blocks [0, n) at 64-byte block granularity.
func scan(h trace.Handler, ref trace.RefID, n int) {
	for i := 0; i < n; i++ {
		h.Access(ref, uint64(i)*64, 8, false)
	}
}

func TestSequentialScanDistances(t *testing.T) {
	e := New(Config{BlockBits: 6, Thresholds: []uint64{4, 100}})
	e.EnterScope(0)
	scan(e, 1, 10) // first pass: all cold
	scan(e, 1, 10) // second pass: every access reuses at distance 9
	e.ExitScope(0)

	rd := e.Ref(1)
	if rd == nil {
		t.Fatal("no data for ref 1")
	}
	if rd.Total != 20 {
		t.Errorf("Total = %d, want 20", rd.Total)
	}
	if rd.Cold != 10 {
		t.Errorf("Cold = %d, want 10", rd.Cold)
	}
	if len(rd.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1", len(rd.Patterns))
	}
	for key, p := range rd.Patterns {
		if key.Source != 0 || key.Carrying != 0 {
			t.Errorf("pattern key = %+v, want {0 0}", key)
		}
		if p.Count != 10 {
			t.Errorf("pattern count = %d, want 10", p.Count)
		}
		if p.Hist.Quantile(0.5) != 9 {
			t.Errorf("median distance = %d, want 9", p.Hist.Quantile(0.5))
		}
		// distance 9 >= 4 but < 100.
		if p.MissAt[0] != 10 {
			t.Errorf("misses at capacity 4 = %d, want 10", p.MissAt[0])
		}
		if p.MissAt[1] != 0 {
			t.Errorf("misses at capacity 100 = %d, want 0", p.MissAt[1])
		}
	}
	if got := rd.MissAt(0); got != 20 { // 10 cold + 10 capacity
		t.Errorf("MissAt(0) = %d, want 20", got)
	}
	if got := rd.MissAt(1); got != 10 { // cold only
		t.Errorf("MissAt(1) = %d, want 10", got)
	}
}

func TestSameBlockReuseIsDistanceZero(t *testing.T) {
	e := New(Config{BlockBits: 6, Thresholds: []uint64{1}})
	e.EnterScope(0)
	e.Access(1, 0, 8, false)
	e.Access(1, 8, 8, false) // same 64-byte block: spatial reuse, distance 0
	e.ExitScope(0)
	rd := e.Ref(1)
	for _, p := range rd.Patterns {
		if p.Hist.Quantile(1) != 0 {
			t.Errorf("distance = %d, want 0", p.Hist.Quantile(1))
		}
		if p.MissAt[0] != 0 {
			t.Errorf("distance-0 reuse counted as miss at capacity 1")
		}
	}
}

// TestCarryingScopeOuterLoop models Fig. 1(a): an inner loop scans a row,
// and the reuse of each block is carried by the outer loop.
func TestCarryingScopeOuterLoop(t *testing.T) {
	const (
		outer trace.ScopeID = 1
		inner trace.ScopeID = 2
	)
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.EnterScope(outer)
	for i := 0; i < 3; i++ { // outer iterations revisit the same blocks
		e.EnterScope(inner)
		scan(e, 7, 5)
		e.ExitScope(inner)
	}
	e.ExitScope(outer)
	e.ExitScope(0)

	rd := e.Ref(7)
	if rd.Scope != inner {
		t.Errorf("ref scope = %d, want inner", rd.Scope)
	}
	if len(rd.Patterns) != 1 {
		t.Fatalf("patterns = %d, want 1: %+v", len(rd.Patterns), rd.Patterns)
	}
	for key := range rd.Patterns {
		if key.Source != inner {
			t.Errorf("source = %d, want inner(%d)", key.Source, inner)
		}
		if key.Carrying != outer {
			t.Errorf("carrying = %d, want outer(%d)", key.Carrying, outer)
		}
	}
}

// TestCarryingScopeInnerLoop checks that reuse within a single loop
// iteration sequence is carried by that loop itself.
func TestCarryingScopeInnerLoop(t *testing.T) {
	const inner trace.ScopeID = 2
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.EnterScope(inner)
	// Access pattern A B A B ...: reuse of A is carried by the loop that
	// contains both accesses.
	for i := 0; i < 4; i++ {
		e.Access(1, 0, 8, false)
		e.Access(1, 1024, 8, false)
	}
	e.ExitScope(inner)
	e.ExitScope(0)
	rd := e.Ref(1)
	for key := range rd.Patterns {
		if key.Carrying != inner {
			t.Errorf("carrying = %d, want inner(%d)", key.Carrying, inner)
		}
	}
}

// TestPatternSeparationBySource verifies that arcs from different source
// scopes land in different histograms for the same sink reference.
func TestPatternSeparationBySource(t *testing.T) {
	const (
		prod trace.ScopeID = 1
		cons trace.ScopeID = 2
	)
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	// Producer touches blocks 0..9 (ref 1), consumer reads them (ref 2),
	// then consumer re-reads them (ref 2 again, source now cons).
	e.EnterScope(prod)
	scan(e, 1, 10)
	e.ExitScope(prod)
	e.EnterScope(cons)
	scan(e, 2, 10)
	scan(e, 2, 10)
	e.ExitScope(cons)
	e.ExitScope(0)

	rd := e.Ref(2)
	if len(rd.Patterns) != 2 {
		t.Fatalf("patterns = %d, want 2", len(rd.Patterns))
	}
	var sources []trace.ScopeID
	for key, p := range rd.Patterns {
		sources = append(sources, key.Source)
		if p.Count != 10 {
			t.Errorf("pattern %+v count = %d, want 10", key, p.Count)
		}
	}
	seen := map[trace.ScopeID]bool{}
	for _, s := range sources {
		seen[s] = true
	}
	if !seen[prod] || !seen[cons] {
		t.Errorf("sources = %v, want both prod and cons", sources)
	}
}

func TestAccessSpanningBlocks(t *testing.T) {
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.Access(1, 60, 8, false) // touches blocks 0 and 1
	e.ExitScope(0)
	if e.Clock() != 2 {
		t.Errorf("clock = %d, want 2 (two blocks touched)", e.Clock())
	}
	if e.DistinctBlocks() != 2 {
		t.Errorf("distinct blocks = %d, want 2", e.DistinctBlocks())
	}
}

func TestZeroSizeAccess(t *testing.T) {
	e := New(Config{BlockBits: 6})
	e.EnterScope(0)
	e.Access(1, 64, 0, false)
	e.ExitScope(0)
	if e.Clock() != 1 {
		t.Errorf("clock = %d, want 1", e.Clock())
	}
}

// randomTrace drives both handlers with the same random, properly nested
// event stream.
func randomTrace(seed int64, events int, h trace.Handler) {
	rng := rand.New(rand.NewSource(seed))
	depth := 0
	h.EnterScope(0)
	depth++
	nextScope := trace.ScopeID(1)
	var open []trace.ScopeID
	open = append(open, 0)
	for i := 0; i < events; i++ {
		switch r := rng.Intn(10); {
		case r < 2 && depth < 8:
			s := nextScope
			// Reuse a small set of scope IDs to get repeated patterns.
			if rng.Intn(2) == 0 {
				s = trace.ScopeID(1 + rng.Intn(6))
			} else {
				nextScope++
			}
			h.EnterScope(s)
			open = append(open, s)
			depth++
		case r < 3 && depth > 1:
			h.ExitScope(open[len(open)-1])
			open = open[:len(open)-1]
			depth--
		default:
			ref := trace.RefID(rng.Intn(5))
			// Cluster addresses so reuses actually happen.
			addr := uint64(rng.Intn(50)) * 64
			h.Access(ref, addr, uint32(1+rng.Intn(16)), rng.Intn(2) == 0)
		}
	}
	for depth > 0 {
		h.ExitScope(open[len(open)-1])
		open = open[:len(open)-1]
		depth--
	}
}

// sameRefData reports the first difference between two references'
// collected data: totals, cold counts, pattern keys and counts, per
// threshold miss counts and every histogram bin; nil when they agree.
func sameRefData(a, b *RefData) error {
	if a.Total != b.Total || a.Cold != b.Cold || a.Scope != b.Scope {
		return fmt.Errorf("ref %d: total %d cold %d scope %d, want %d %d %d", a.Ref, a.Total, a.Cold, a.Scope, b.Total, b.Cold, b.Scope)
	}
	if len(a.Patterns) != len(b.Patterns) {
		return fmt.Errorf("ref %d: %d patterns, want %d", a.Ref, len(a.Patterns), len(b.Patterns))
	}
	for key, pa := range a.Patterns {
		pb := b.Patterns[key]
		if pb == nil {
			return fmt.Errorf("ref %d: pattern %+v missing", a.Ref, key)
		}
		if pa.Count != pb.Count || !slices.Equal(pa.MissAt, pb.MissAt) ||
			pa.Hist.Cold() != pb.Hist.Cold() || pa.Hist.Max() != pb.Hist.Max() ||
			!slices.Equal(bins(pa.Hist), bins(pb.Hist)) {
			return fmt.Errorf("ref %d pattern %+v: count %d miss %v max %d bins %v, want %d %v %d %v", a.Ref, key,
				pa.Count, pa.MissAt, pa.Hist.Max(), bins(pa.Hist), pb.Count, pb.MissAt, pb.Hist.Max(), bins(pb.Hist))
		}
	}
	return nil
}

// bins lists a histogram's occupied bins in order.
func bins(h *histo.Histogram) []histo.Bin {
	var out []histo.Bin
	h.Each(func(b histo.Bin) { out = append(out, b) })
	return out
}

// sameAsNaive compares every reference of the engine with the naive
// engine's, and the miss totals at every threshold.
func sameAsNaive(e *Engine, n *Naive) error {
	if len(e.Refs()) != len(n.Refs()) {
		return fmt.Errorf("%d references, naive %d", len(e.Refs()), len(n.Refs()))
	}
	for _, rd := range e.Refs() {
		nd := n.Ref(rd.Ref)
		if nd == nil {
			return fmt.Errorf("ref %d missing from the naive engine", rd.Ref)
		}
		if err := sameRefData(rd, nd); err != nil {
			return err
		}
		for i := range e.Thresholds() {
			if got, want := rd.MissAt(i), nd.MissAt(i); got != want {
				return fmt.Errorf("ref %d: MissAt(%d) = %d, naive %d", rd.Ref, i, got, want)
			}
		}
	}
	return nil
}

// TestEngineMatchesNaive is the central differential test: the O(log M)
// engine must agree exactly with the O(N·M) reference implementation,
// pattern by pattern and bin by bin.
func TestEngineMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		thresholds := []uint64{4, 16, 64}
		e := New(Config{BlockBits: 6, Thresholds: thresholds})
		n := NewNaive(6, thresholds)
		randomTrace(seed, 2000, trace.Multi{e, n})
		if err := sameAsNaive(e, n); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// phasedTrace drives h with the stream that in describes, four bytes a
// phase (missing bytes read as zero):
//
//   - b0: the working set, 1 to 3*frontK blocks, so reuses land on both
//     sides of the engine's front of newest marks;
//   - b1: the phase length, 64 to 16384 block-sized accesses;
//   - b2: scope nesting (enter one of six scopes, leave one, or stay) and
//     the reference;
//   - b3: the access order (cyclic sweep, zigzag, uniform, or uniform
//     with accesses that span two or three blocks) and the working set's
//     offset.
//
// A phase with a small working set keeps every mark in the front, so the
// next larger one hands the tree an insert far past its window. Runs stop
// at 1<<16 accesses; long ones cross many epoch compactions.
func phasedTrace(in []byte, h trace.Handler) {
	open := []trace.ScopeID{0}
	h.EnterScope(0)
	accesses := 0
	for p := 0; p < len(in) && accesses < 1<<16; p += 4 {
		var b [4]byte
		copy(b[:], in[p:])
		ws := 1 + int(b[0])%(3*frontK)
		n := 64 * (1 + int(b[1]))
		switch b[2] % 4 {
		case 0:
			if len(open) < 8 {
				s := trace.ScopeID(1 + int(b[2]>>2)%6)
				h.EnterScope(s)
				open = append(open, s)
			}
		case 1:
			if len(open) > 1 {
				h.ExitScope(open[len(open)-1])
				open = open[:len(open)-1]
			}
		}
		ref := trace.RefID(b[2] >> 5)
		base := uint64(b[3]>>2) % 16
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint32(b[:]))))
		for i := 0; i < n && accesses < 1<<16; i++ {
			accesses++
			blk, size := uint64(i%ws), uint32(8)
			switch b[3] % 4 {
			case 1:
				if (i/ws)%2 == 1 {
					blk = uint64(ws - 1 - i%ws)
				}
			case 2:
				blk = uint64(rng.Intn(ws))
			case 3:
				blk = uint64(rng.Intn(ws))
				if rng.Intn(4) == 0 {
					size = uint32(65 + rng.Intn(128))
				}
			}
			h.Access(ref, (base+blk)*64+uint64(rng.Intn(8))*8, size, i%3 == 0)
		}
	}
	for len(open) > 0 {
		h.ExitScope(open[len(open)-1])
		open = open[:len(open)-1]
	}
}

// FuzzEngineMatchesNaive: on generated phased streams, the engine (front
// of newest marks, epoch tree behind it) agrees with the naive LRU stack
// on every reference's totals, cold counts, patterns, miss counts at
// thresholds around the front's size, and every histogram bin.
func FuzzEngineMatchesNaive(f *testing.F) {
	f.Add([]byte{20, 255, 0, 0, 21, 255, 3, 1, 22, 255, 2, 2})           // 48k accesses over 21-23 blocks: many compactions
	f.Add([]byte{3, 255, 0, 2, 23, 40, 4, 7, 7, 200, 1, 3})              // all-front phase, then a gap past the window
	f.Add([]byte{8, 100, 0, 0, 9, 100, 4, 1, 16, 100, 8, 2})             // working sets at frontK and frontK+1
	f.Add([]byte{0, 10, 0, 3, 17, 50, 33, 3, 5, 255, 65, 2, 1, 1, 2, 0}) // multi-block accesses, nested scopes
	f.Fuzz(func(t *testing.T, in []byte) {
		thresholds := []uint64{2, frontK - 1, frontK, frontK + 1, 2 * frontK}
		e := New(Config{BlockBits: 6, Thresholds: thresholds})
		n := NewNaive(6, thresholds)
		phasedTrace(in, trace.Multi{e, n})
		if e.Clock() != n.clock {
			t.Fatalf("clock %d, naive %d", e.Clock(), n.clock)
		}
		if err := sameAsNaive(e, n); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCollectorLevelsAndEngines(t *testing.T) {
	c := NewCollectorWith([]Granularity{
		{Name: "line", BlockBits: 7, Thresholds: []uint64{2048, 12288}, LevelNames: []string{"L2", "L3"}},
		{Name: "page", BlockBits: 14, Thresholds: []uint64{128}, LevelNames: []string{"TLB"}},
	}, Config{})
	c.EnterScope(0)
	for i := 0; i < 1000; i++ {
		c.Access(1, uint64(i%100)*128, 8, false)
	}
	c.ExitScope(0)

	if e := c.Engine("line"); e == nil || e.BlockBits() != 7 {
		t.Fatal("line engine missing or misconfigured")
	}
	if e := c.Engine("nope"); e != nil {
		t.Fatal("unknown engine name should return nil")
	}
	e, idx := c.Level("L3")
	if e == nil || idx != 1 {
		t.Fatalf("Level(L3) = %v, %d", e, idx)
	}
	if e2, idx2 := c.Level("TLB"); e2 == nil || idx2 != 0 || e2.BlockBits() != 14 {
		t.Fatalf("Level(TLB) misconfigured")
	}
	if _, idx := c.Level("L1"); idx != -1 {
		t.Fatal("unknown level should return -1")
	}
	// The page engine sees 100 lines mapping to fewer pages.
	if c.Engine("page").DistinctBlocks() >= c.Engine("line").DistinctBlocks() {
		t.Error("page-granularity engine should see fewer distinct blocks")
	}
}

func TestTotalsConsistency(t *testing.T) {
	e := New(Config{BlockBits: 6, Thresholds: []uint64{8}})
	randomTrace(3, 5000, e)
	var totals, cold uint64
	for _, rd := range e.Refs() {
		totals += rd.Total
		cold += rd.Cold
		// Per-ref: finite arcs + cold == total accesses.
		var finite uint64
		for _, p := range rd.Patterns {
			finite += p.Count
			if p.Hist.Total() != p.Count {
				t.Errorf("ref %d: hist total %d != pattern count %d", rd.Ref, p.Hist.Total(), p.Count)
			}
		}
		if finite+rd.Cold != rd.Total {
			t.Errorf("ref %d: finite %d + cold %d != total %d", rd.Ref, finite, rd.Cold, rd.Total)
		}
	}
	if totals != e.Clock() {
		t.Errorf("sum of ref totals %d != clock %d", totals, e.Clock())
	}
	if cold != e.TotalCold() {
		t.Errorf("cold sum mismatch")
	}
	if uint64(e.DistinctBlocks()) != cold {
		t.Errorf("distinct blocks %d != compulsory accesses %d", e.DistinctBlocks(), cold)
	}
	if e.TotalMissAt(0) < e.TotalCold() {
		t.Errorf("misses cannot be fewer than compulsory misses")
	}
}

func BenchmarkEngine(b *testing.B) {
	e := New(Config{BlockBits: 7, Thresholds: []uint64{2048, 12288}})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	e.EnterScope(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Access(trace.RefID(i&7), addrs[i&0xffff], 8, false)
	}
}

// TestEngineSteadyStateAllocatesNothing pins the engine's steady state:
// once every block of a fixed set, every reference and every pattern has
// been seen, a pass that carries the order-statistic tree through several
// compactions allocates nothing.
func TestEngineSteadyStateAllocatesNothing(t *testing.T) {
	const blocks, sweeps = 1000, 16
	e := New(Config{BlockBits: 6, Thresholds: []uint64{512, 4096}})
	e.EnterScope(0)
	pass := func() {
		for i := 0; i < sweeps; i++ {
			scan(e, trace.RefID(i%2), blocks)
		}
	}
	pass() // warm-up: cold blocks, reference table, patterns, histogram bins
	start := e.Clock()
	allocs := testing.AllocsPerRun(3, pass)
	// The tree window starts at 4096 slots and the live set is 1000
	// blocks, so it compacts every 3096 accesses: at least five times a
	// pass.
	if perPass := (e.Clock() - start) / 4; perPass < 5*(4096-blocks) {
		t.Fatalf("a pass made %d accesses, too few to compact five times", perPass)
	}
	if allocs != 0 {
		t.Errorf("steady-state pass allocated %v objects, want 0", allocs)
	}
}

// TestRestoreBuildsNoIndex checks that a restored engine answers every
// query like the engine it was saved from, while building neither the
// block table nor the order-statistic tree a live engine needs.
func TestRestoreBuildsNoIndex(t *testing.T) {
	cfg := Config{BlockBits: 6, Thresholds: []uint64{4, 16, 64}}
	live := New(cfg)
	randomTrace(9, 3000, live)
	refs := live.Refs()
	r := Restore(cfg, refs, live.Clock())
	if r.table != nil || r.tree != nil {
		t.Fatal("restored engine built a block table or a tree")
	}
	if r.Fingerprint() != live.Fingerprint() {
		t.Errorf("fingerprint %016x, want %016x", r.Fingerprint(), live.Fingerprint())
	}
	for i := range cfg.Thresholds {
		if got, want := r.TotalMissAt(i), live.TotalMissAt(i); got != want {
			t.Errorf("TotalMissAt(%d) = %d, want %d", i, got, want)
		}
	}
	got := r.Refs()
	if len(got) != len(refs) {
		t.Fatalf("Refs: %d references, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Errorf("Refs[%d] is not the restored reference %d", i, refs[i].Ref)
		}
	}
	if r.Clock() != live.Clock() || r.TotalCold() != live.TotalCold() || r.DistinctBlocks() != 0 {
		t.Errorf("clock %d cold %d blocks %d, want %d %d 0",
			r.Clock(), r.TotalCold(), r.DistinctBlocks(), live.Clock(), live.TotalCold())
	}
	// The engine and its dense reference table are all Restore allocates.
	if allocs := testing.AllocsPerRun(10, func() { Restore(cfg, refs, live.Clock()) }); allocs > 2 {
		t.Errorf("Restore allocated %v objects, want at most 2", allocs)
	}
}
