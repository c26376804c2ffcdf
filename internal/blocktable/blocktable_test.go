package blocktable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reusetool/internal/trace"
)

func TestFirstAccessNotPresent(t *testing.T) {
	for name, tbl := range map[string]Table{"Radix": NewRadix(), "Map": NewMap()} {
		_, ok := tbl.LookupStore(123, Entry{Time: 1})
		if ok {
			t.Errorf("%s: first access reported present", name)
		}
		prev, ok := tbl.LookupStore(123, Entry{Time: 2})
		if !ok || prev.Time != 1 {
			t.Errorf("%s: second access: prev=%+v ok=%v, want Time=1 ok=true", name, prev, ok)
		}
		if tbl.Blocks() != 1 {
			t.Errorf("%s: Blocks = %d, want 1", name, tbl.Blocks())
		}
	}
}

func TestZeroTimeEntryIsDistinguishedFromAbsent(t *testing.T) {
	// An entry with the zero value must still be reported as present on the
	// next lookup; presence is tracked by a bitmap, not by sentinel values.
	r := NewRadix()
	if _, ok := r.LookupStore(0, Entry{}); ok {
		t.Fatal("block 0 reported present before any store")
	}
	prev, ok := r.LookupStore(0, Entry{Time: 9})
	if !ok {
		t.Fatal("block 0 not present after storing zero entry")
	}
	if prev != (Entry{}) {
		t.Fatalf("prev = %+v, want zero entry", prev)
	}
}

func TestRadixMatchesMapRandom(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRadix()
		m := NewMap()
		for i := 0; i < 3000; i++ {
			// Mix nearby blocks with far-apart ones to hit all radix levels.
			var block uint64
			switch rng.Intn(3) {
			case 0:
				block = uint64(rng.Intn(100))
			case 1:
				block = uint64(rng.Intn(1 << 20))
			default:
				block = rng.Uint64() >> uint(rng.Intn(40))
			}
			e := Entry{Time: uint64(i + 1), Ref: trace.RefID(rng.Intn(50)), Scope: trace.ScopeID(rng.Intn(20))}
			p1, ok1 := r.LookupStore(block, e)
			p2, ok2 := m.LookupStore(block, e)
			if ok1 != ok2 || p1 != p2 {
				return false
			}
			if r.Blocks() != m.Blocks() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRadixLevelBoundaries(t *testing.T) {
	r := NewRadix()
	// Blocks chosen to straddle leaf and mid boundaries.
	blocks := []uint64{
		0, leafSize - 1, leafSize, leafSize + 1,
		leafSize * midSize, leafSize*midSize - 1, leafSize*midSize + 1,
		1 << 40, (1 << 40) + leafSize,
	}
	for i, b := range blocks {
		if _, ok := r.LookupStore(b, Entry{Time: uint64(i + 1)}); ok {
			t.Errorf("block %#x reported present on first store", b)
		}
	}
	if r.Blocks() != len(blocks) {
		t.Fatalf("Blocks = %d, want %d", r.Blocks(), len(blocks))
	}
	for i, b := range blocks {
		prev, ok := r.LookupStore(b, Entry{Time: 100})
		if !ok || prev.Time != uint64(i+1) {
			t.Errorf("block %#x: prev=%+v ok=%v", b, prev, ok)
		}
	}

	// Accesses that alternate across two leaves of one mid node miss the
	// leaf cache and hit the mid cache; across two mid nodes they miss
	// both. Each lookup must find what the access two before it stored.
	for _, pair := range [][2]uint64{
		{5, leafSize + 5},                          // two leaves, one mid node
		{leafSize*midSize - 1, leafSize * midSize}, // two mid nodes, adjacent blocks
		{7, 3*leafSize*midSize + 7},                // two mid nodes, far apart
		{1<<40 + 1, 1<<40 + 2*leafSize + 1},        // two leaves of a high mid node
	} {
		r := NewRadix()
		for i := 0; i < 8; i++ {
			b := pair[i%2]
			prev, ok := r.LookupStore(b, Entry{Time: uint64(i + 1), Ref: trace.RefID(i), Scope: trace.ScopeID(i % 2)})
			switch {
			case i < 2 && ok:
				t.Errorf("blocks %#x: block %#x reported present on first store", pair, b)
			case i >= 2 && (!ok || prev != Entry{Time: uint64(i - 1), Ref: trace.RefID(i - 2), Scope: trace.ScopeID(i % 2)}):
				t.Errorf("blocks %#x: access %d to %#x: prev=%+v ok=%v, want the entry of access %d", pair, i, b, prev, ok, i-2)
			}
		}
		if r.Blocks() != 2 {
			t.Errorf("blocks %#x: Blocks = %d, want 2", pair, r.Blocks())
		}
	}
}

func benchTable(b *testing.B, tbl Table, span uint64) {
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block := rng.Uint64() % span
		tbl.LookupStore(block, Entry{Time: uint64(i)})
	}
}

func BenchmarkRadixDense(b *testing.B) { benchTable(b, NewRadix(), 1<<16) }
func BenchmarkMapDense(b *testing.B)   { benchTable(b, NewMap(), 1<<16) }
func BenchmarkRadixWide(b *testing.B)  { benchTable(b, NewRadix(), 1<<32) }
func BenchmarkMapWide(b *testing.B)    { benchTable(b, NewMap(), 1<<32) }

func TestRadixEvict(t *testing.T) {
	r := NewRadix()
	// Spread blocks across several leaves and top-level entries.
	var blocks []uint64
	for i := uint64(0); i < 4000; i++ {
		blocks = append(blocks, i*37)
	}
	blocks = append(blocks, 1<<40, 1<<40+1, 1<<50)
	for i, b := range blocks {
		r.LookupStore(b, Entry{Time: uint64(i + 1)})
	}
	if r.Blocks() != len(blocks) {
		t.Fatalf("Blocks = %d, want %d", r.Blocks(), len(blocks))
	}
	// Evict every odd-numbered block; check drop sees the stored entry.
	seen := map[uint64]uint64{}
	n := r.Evict(func(block uint64, e Entry) bool {
		seen[block] = e.Time
		return block%2 == 1
	})
	wantEvicted := 0
	for i, b := range blocks {
		if seen[b] != uint64(i+1) {
			t.Fatalf("block %#x: drop saw time %d, want %d", b, seen[b], i+1)
		}
		if b%2 == 1 {
			wantEvicted++
		}
	}
	if n != wantEvicted || r.Blocks() != len(blocks)-wantEvicted {
		t.Fatalf("evicted %d (Blocks %d), want %d (%d)",
			n, r.Blocks(), wantEvicted, len(blocks)-wantEvicted)
	}
	// Evicted blocks must look like first touches again; survivors keep
	// their entries.
	for i, b := range blocks {
		prev, ok := r.LookupStore(b, Entry{Time: 9999})
		if b%2 == 1 {
			if ok {
				t.Fatalf("evicted block %#x still present (%+v)", b, prev)
			}
		} else if !ok || prev.Time != uint64(i+1) {
			t.Fatalf("survivor %#x: prev=%+v ok=%v", b, prev, ok)
		}
	}
	if r.Blocks() != len(blocks) {
		t.Fatalf("after re-store Blocks = %d, want %d", r.Blocks(), len(blocks))
	}
}

func TestRadixEvictNone(t *testing.T) {
	r := NewRadix()
	r.LookupStore(7, Entry{Time: 1})
	if n := r.Evict(func(uint64, Entry) bool { return false }); n != 0 {
		t.Fatalf("evicted %d, want 0", n)
	}
	if r.Blocks() != 1 {
		t.Fatalf("Blocks = %d, want 1", r.Blocks())
	}
}
