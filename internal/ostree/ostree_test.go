package ostree

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// Tree is the contract AVL, Epoch and the brute-force oracle share.
//
// Insert adds a timestamp strictly greater than every timestamp ever
// inserted before. Delete removes a present timestamp. CountGreater reports
// how many live timestamps are strictly greater than t.
type Tree interface {
	Insert(t uint64)
	Delete(t uint64)
	CountGreater(t uint64) uint64
	Len() int
}

// checkInvariants verifies the epoch tree's slot window, as
// AVL.checkInvariants does the AVL tree's shape: slot times strictly
// increase over [0, next), no slot at or past next is live, the BIT counts
// exactly n live slots, and [runStart, next) is an affine run.
func (e *Epoch) checkInvariants() error {
	for s := int32(1); s < e.next; s++ {
		if e.slotTime[s] <= e.slotTime[s-1] {
			return fmt.Errorf("slotTime[%d] = %d not above slotTime[%d] = %d", s, e.slotTime[s], s-1, e.slotTime[s-1])
		}
	}
	for s := int(e.next); s < len(e.live); s++ {
		if e.live[s] {
			return fmt.Errorf("slot %d live at or past next = %d", s, e.next)
		}
	}
	if e.next > 0 {
		if got := e.prefix(e.next - 1); int(got) != e.n {
			return fmt.Errorf("BIT prefix(%d) = %d, want n = %d", e.next-1, got, e.n)
		}
	} else if e.n != 0 {
		return fmt.Errorf("n = %d with no slots assigned", e.n)
	}
	if e.runStart > e.next {
		return fmt.Errorf("runStart %d past next %d", e.runStart, e.next)
	}
	for s := e.runStart; s < e.next; s++ {
		if e.slotTime[s] != e.slotTime[e.runStart]+uint64(s-e.runStart) {
			return fmt.Errorf("affine run broken at slot %d: %d != %d + %d", s, e.slotTime[s], e.slotTime[e.runStart], s-e.runStart)
		}
	}
	return nil
}

// brute is an O(n) reference implementation backed by a slice.
type brute struct {
	keys []uint64
}

func (b *brute) Insert(t uint64) { b.keys = append(b.keys, t) }

func (b *brute) Delete(t uint64) {
	for i, k := range b.keys {
		if k == t {
			b.keys[i] = b.keys[len(b.keys)-1]
			b.keys = b.keys[:len(b.keys)-1]
			return
		}
	}
}

func (b *brute) CountGreater(t uint64) uint64 {
	var c uint64
	for _, k := range b.keys {
		if k > t {
			c++
		}
	}
	return c
}

func (b *brute) Len() int { return len(b.keys) }

func implementations() map[string]func() Tree {
	return map[string]func() Tree{
		"AVL":   func() Tree { return NewAVL(0) },
		"Epoch": func() Tree { return NewEpoch(16) },
	}
}

func TestEmptyTree(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		if tr.Len() != 0 {
			t.Errorf("%s: empty Len = %d", name, tr.Len())
		}
		if got := tr.CountGreater(0); got != 0 {
			t.Errorf("%s: empty CountGreater(0) = %d", name, got)
		}
		tr.Delete(42) // must be a no-op
		if tr.Len() != 0 {
			t.Errorf("%s: Len after no-op delete = %d", name, tr.Len())
		}
	}
}

func TestSingleElement(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		tr.Insert(10)
		if tr.Len() != 1 {
			t.Errorf("%s: Len = %d, want 1", name, tr.Len())
		}
		if got := tr.CountGreater(5); got != 1 {
			t.Errorf("%s: CountGreater(5) = %d, want 1", name, got)
		}
		if got := tr.CountGreater(10); got != 0 {
			t.Errorf("%s: CountGreater(10) = %d, want 0", name, got)
		}
		if got := tr.CountGreater(15); got != 0 {
			t.Errorf("%s: CountGreater(15) = %d, want 0", name, got)
		}
		tr.Delete(10)
		if tr.Len() != 0 {
			t.Errorf("%s: Len after delete = %d, want 0", name, tr.Len())
		}
	}
}

func TestSequentialInsertRank(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		const n = 1000
		for i := uint64(1); i <= n; i++ {
			tr.Insert(i)
		}
		for i := uint64(1); i <= n; i++ {
			if got := tr.CountGreater(i); got != n-i {
				t.Fatalf("%s: CountGreater(%d) = %d, want %d", name, i, got, n-i)
			}
		}
	}
}

// TestReuseDistanceUsagePattern exercises the exact pattern the
// reuse-distance engine performs: delete an old timestamp, insert the
// current time, query the rank of the old timestamp first.
func TestReuseDistanceUsagePattern(t *testing.T) {
	for name, mk := range implementations() {
		tr := mk()
		ref := &brute{}
		rng := rand.New(rand.NewSource(7))
		// live maps block -> last access time.
		live := map[int]uint64{}
		now := uint64(0)
		for step := 0; step < 20000; step++ {
			now++
			block := rng.Intn(200)
			if old, ok := live[block]; ok {
				want := ref.CountGreater(old)
				got := tr.CountGreater(old)
				if got != want {
					t.Fatalf("%s: step %d CountGreater(%d) = %d, want %d", name, step, old, got, want)
				}
				tr.Delete(old)
				ref.Delete(old)
			}
			tr.Insert(now)
			ref.Insert(now)
			live[block] = now
			if tr.Len() != ref.Len() {
				t.Fatalf("%s: Len = %d, want %d", name, tr.Len(), ref.Len())
			}
		}
	}
}

// TestRandomOpsQuick compares each implementation against the brute-force
// reference on random operation sequences using testing/quick.
func TestRandomOpsQuick(t *testing.T) {
	for name, mk := range implementations() {
		name, mk := name, mk
		f := func(seed int64, nOps uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			tr := mk()
			ref := &brute{}
			now := uint64(0)
			inserted := []uint64{}
			for i := 0; i < int(nOps)+1; i++ {
				switch rng.Intn(3) {
				case 0: // insert
					now++
					tr.Insert(now)
					ref.Insert(now)
					inserted = append(inserted, now)
				case 1: // delete a random live key
					if len(ref.keys) > 0 {
						k := ref.keys[rng.Intn(len(ref.keys))]
						tr.Delete(k)
						ref.Delete(k)
					}
				case 2: // query a random previously inserted key
					if len(inserted) > 0 {
						k := inserted[rng.Intn(len(inserted))]
						if tr.CountGreater(k) != ref.CountGreater(k) {
							return false
						}
					}
				}
				if tr.Len() != ref.Len() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAVLInvariantsUnderChurn(t *testing.T) {
	tr := NewAVL(0)
	rng := rand.New(rand.NewSource(11))
	live := map[int]uint64{}
	now := uint64(0)
	for step := 0; step < 5000; step++ {
		now++
		block := rng.Intn(64)
		if old, ok := live[block]; ok {
			tr.Delete(old)
		}
		tr.Insert(now)
		live[block] = now
		if step%500 == 0 && !tr.checkInvariants() {
			t.Fatalf("AVL invariants violated at step %d", step)
		}
	}
	if !tr.checkInvariants() {
		t.Fatal("AVL invariants violated at end")
	}
	// Drain and re-check.
	for _, v := range live {
		tr.Delete(v)
	}
	if tr.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", tr.Len())
	}
	if !tr.checkInvariants() {
		t.Fatal("AVL invariants violated after drain")
	}
}

func TestAVLNodeReuse(t *testing.T) {
	tr := NewAVL(4)
	for round := 0; round < 10; round++ {
		base := uint64(round * 1000)
		for i := uint64(1); i <= 100; i++ {
			tr.Insert(base + i)
		}
		for i := uint64(1); i <= 100; i++ {
			tr.Delete(base + i)
		}
	}
	// The pool should not have grown far beyond the peak live size.
	if len(tr.nodes) > 200 {
		t.Errorf("node pool grew to %d entries for a peak of 100 live keys", len(tr.nodes))
	}
}

// TestAllKindsAgreeWithOracle drives the epoch tree and the paper's AVL
// tree through the same random insert/delete/count interleavings and
// checks every query against the brute-force oracle. The engine counts
// every reuse distance with the epoch tree, so any divergence here would
// silently change reported reuse distances.
func TestAllKindsAgreeWithOracle(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		ep := NewEpoch(0)
		trees := []Tree{ep, NewAVL(0)}
		ref := &brute{}
		now := uint64(0)
		inserted := []uint64{}
		for i := 0; i < int(nOps)%2000+1; i++ {
			switch rng.Intn(4) {
			case 0, 1: // insert, sometimes with a clock gap to break affine runs
				now += uint64(rng.Intn(3) + 1)
				for _, tr := range trees {
					tr.Insert(now)
				}
				ref.Insert(now)
				inserted = append(inserted, now)
			case 2: // delete a random live key
				if len(ref.keys) > 0 {
					k := ref.keys[rng.Intn(len(ref.keys))]
					for _, tr := range trees {
						tr.Delete(k)
					}
					ref.Delete(k)
				}
			default: // query any previously seen (possibly deleted) key
				if len(inserted) > 0 {
					k := inserted[rng.Intn(len(inserted))]
					want := ref.CountGreater(k)
					for _, tr := range trees {
						if got := tr.CountGreater(k); got != want {
							return false
						}
					}
				}
			}
			for _, tr := range trees {
				if tr.Len() != ref.Len() {
					return false
				}
			}
			if err := ep.checkInvariants(); err != nil {
				t.Logf("seed %d op %d: %v", seed, i, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFenwickWindowBoundaryGrowth pushes the epoch tree's live set past a
// 1<<16 window so compaction must grow the binary indexed tree's slot
// space. Before growth was made explicit this was the regime where a full
// window of live slots could recycle slots incorrectly.
func TestFenwickWindowBoundaryGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("large live set; skipped in -short")
	}
	const n = 1<<16 + 5000
	tr := NewEpoch(1 << 16)
	for i := uint64(1); i <= n; i++ {
		tr.Insert(i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for _, q := range []uint64{1, 255, 1 << 15, 1 << 16, 1<<16 + 1, n - 1, n} {
		if got, want := tr.CountGreater(q), uint64(n-q); got != want {
			t.Errorf("CountGreater(%d) = %d, want %d", q, got, want)
		}
	}
	// Churn across the boundary: delete the older half, keep counting.
	for i := uint64(1); i <= n/2; i++ {
		tr.Delete(i)
	}
	if got, want := tr.CountGreater(n/2), uint64(n-n/2); got != want {
		t.Errorf("after deletes CountGreater(%d) = %d, want %d", n/2, got, want)
	}
	if got, want := tr.CountGreater(0), uint64(n-n/2); got != want {
		t.Errorf("after deletes CountGreater(0) = %d, want %d", got, want)
	}
}

// TestEpochCompactionChurn forces many compactions of a small window
// under random deletes, with clock gaps mixed in so compaction interacts
// with broken affine runs.
func TestEpochCompactionChurn(t *testing.T) {
	e := NewEpoch(16)
	ref := &brute{}
	live := []uint64{}
	now := uint64(0)
	rng := rand.New(rand.NewSource(5))
	check := func(i int, op string) {
		t.Helper()
		if err := e.checkInvariants(); err != nil {
			t.Fatalf("after %d ops (%s): %v", i, op, err)
		}
	}
	for i := 0; i < 10000; i++ {
		now += uint64(rng.Intn(2) + 1)
		e.Insert(now)
		ref.Insert(now)
		live = append(live, now)
		check(i, "insert")
		if len(live) > 24 {
			j := rng.Intn(len(live))
			e.Delete(live[j])
			ref.Delete(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			check(i, "delete")
		}
		if i%53 == 0 && len(live) > 0 {
			k := live[rng.Intn(len(live))]
			if got, want := e.CountGreater(k), ref.CountGreater(k); got != want {
				t.Fatalf("after %d ops: CountGreater(%d) = %d, want %d", i, k, got, want)
			}
			check(i, "count")
		}
	}
}

// TestEpochCompactionAllocatesNothing pins the steady state: a live set
// that fits in half the window is re-packed in place, so compaction
// allocates nothing however often it runs, and a growing live set
// reallocates only at the inserts where the window doubles.
func TestEpochCompactionAllocatesNothing(t *testing.T) {
	const window, liveSet = 64, 16
	e := NewEpoch(window)
	ring := make([]uint64, liveSet)
	now := uint64(0)
	for i := range ring {
		now++
		e.Insert(now)
		ring[i] = now
	}
	compactions := 0
	allocs := testing.AllocsPerRun(5, func() {
		compactions = 0
		for i := 0; i < 12*window; i++ {
			slot := i % liveSet
			next := e.next
			now++
			e.CountGreater(ring[slot])
			e.Delete(ring[slot])
			e.Insert(now)
			ring[slot] = now
			if e.next <= next {
				compactions++
			}
		}
	})
	if compactions < 10 {
		t.Fatalf("a pass ran %d compactions, want at least 10", compactions)
	}
	if allocs != 0 {
		t.Errorf("steady live set: %v allocations per %d compactions, want 0", allocs, compactions)
	}
	if len(e.live) != window {
		t.Errorf("window grew to %d for a live set of %d", len(e.live), liveSet)
	}
	if err := e.checkInvariants(); err != nil {
		t.Fatal(err)
	}

	// Growth: with no deletes every compaction finds the window full, so
	// each one doubles it, and only those inserts allocate.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := NewEpoch(16)
	var before, after runtime.MemStats
	doublings := 0
	for ts := uint64(1); ts <= 4096; ts++ {
		w := len(g.live)
		runtime.ReadMemStats(&before)
		g.Insert(ts)
		runtime.ReadMemStats(&after)
		grew := len(g.live) != w
		if grew {
			doublings++
			if len(g.live) != 2*w {
				t.Fatalf("insert %d: window %d -> %d, want a doubling", ts, w, len(g.live))
			}
		}
		if allocated := after.Mallocs > before.Mallocs; allocated != grew {
			t.Fatalf("insert %d: allocated %d objects, window %d -> %d", ts, after.Mallocs-before.Mallocs, w, len(g.live))
		}
	}
	if doublings != 8 { // 16 -> 4096
		t.Errorf("window doubled %d times, want 8", doublings)
	}
	if err := g.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFenwickAbsentKeyQuery queries the epoch tree at timestamps that
// were never inserted or were deleted.
func TestFenwickAbsentKeyQuery(t *testing.T) {
	e := NewEpoch(16)
	for _, k := range []uint64{10, 20, 30, 40} {
		e.Insert(k)
	}
	e.Delete(20)
	cases := []struct {
		t    uint64
		want uint64
	}{
		{0, 3},  // below all live keys
		{5, 3},  // below all live keys
		{10, 2}, // live
		{20, 2}, // deleted; 30 and 40 are greater
		{30, 1},
		{40, 0},
		{50, 0}, // above all keys
	}
	for _, c := range cases {
		if got := e.CountGreater(c.t); got != c.want {
			t.Errorf("CountGreater(%d) = %d, want %d", c.t, got, c.want)
		}
	}
}

func benchTree(b *testing.B, mk func() Tree, blocks int) {
	tr := mk()
	rng := rand.New(rand.NewSource(1))
	live := make([]uint64, blocks)
	now := uint64(0)
	// Warm up: touch every block once.
	for i := range live {
		now++
		tr.Insert(now)
		live[i] = now
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now++
		blk := rng.Intn(blocks)
		old := live[blk]
		_ = tr.CountGreater(old)
		tr.Delete(old)
		tr.Insert(now)
		live[blk] = now
	}
}

func BenchmarkAVL64KBlocks(b *testing.B) { benchTree(b, func() Tree { return NewAVL(0) }, 65536) }
func BenchmarkEpoch64KBlocks(b *testing.B) {
	benchTree(b, func() Tree { return NewEpoch(0) }, 65536)
}
