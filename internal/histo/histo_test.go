package histo

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinIndexRoundTrip(t *testing.T) {
	for _, res := range []int{1, 2, 8, 64, 256} {
		h := NewRes(res)
		ds := []uint64{0, 1, 2, 7, 100, 255, 256, 257, 511, 512, 1000, 1 << 20, 1<<40 + 12345}
		for _, d := range ds {
			idx := h.binIndex(d)
			lo, hi := h.binBounds(idx)
			if d < lo || d > hi {
				t.Errorf("res=%d d=%d: bin [%d,%d] does not contain d", res, d, lo, hi)
			}
		}
	}
}

func TestBinBoundsContiguousAndOrdered(t *testing.T) {
	h := New()
	var prevHi uint64
	first := true
	// Walk bins in order through several octaves.
	for idx := uint32(0); idx < linearMax+16*DefaultResolution; idx++ {
		lo, hi := h.binBounds(idx)
		if lo > hi {
			t.Fatalf("bin %d: lo %d > hi %d", idx, lo, hi)
		}
		if !first && lo != prevHi+1 {
			t.Fatalf("bin %d: lo %d, previous hi %d (gap or overlap)", idx, lo, prevHi)
		}
		prevHi = hi
		first = false
	}
}

func TestExactBelowLinearMax(t *testing.T) {
	h := New()
	for d := uint64(0); d < linearMax; d++ {
		h.AddN(d, d+1)
	}
	var bins int
	h.Each(func(b Bin) {
		if b.Lo != b.Hi {
			t.Errorf("bin [%d,%d] below linearMax is not exact", b.Lo, b.Hi)
		}
		if b.Count != b.Lo+1 {
			t.Errorf("bin %d count = %d, want %d", b.Lo, b.Count, b.Lo+1)
		}
		bins++
	})
	if bins != linearMax {
		t.Errorf("got %d bins, want %d", bins, linearMax)
	}
}

func TestTotalsAndCold(t *testing.T) {
	h := New()
	h.Add(5)
	h.Add(Cold)
	h.AddN(1000, 3)
	h.Add(Cold)
	if h.Total() != 4 {
		t.Errorf("Total = %d, want 4", h.Total())
	}
	if h.Cold() != 2 {
		t.Errorf("Cold = %d, want 2", h.Cold())
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %d, want 1000", h.Max())
	}
}

func TestCountAtLeastExactRegion(t *testing.T) {
	h := New()
	for d := uint64(0); d < 200; d++ {
		h.Add(d)
	}
	// In the exact region, CountAtLeast must be exact.
	for _, th := range []uint64{0, 1, 50, 199, 200} {
		want := float64(0)
		if th < 200 {
			want = float64(200 - th)
		}
		if got := h.CountAtLeast(th); got != want {
			t.Errorf("CountAtLeast(%d) = %v, want %v", th, got, want)
		}
	}
}

func TestCountAtLeastMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New()
		for i := 0; i < 500; i++ {
			h.Add(uint64(rng.Intn(1 << 16)))
		}
		prev := h.CountAtLeast(0)
		if prev != float64(h.Total()) {
			return false
		}
		for th := uint64(1); th < 1<<17; th *= 2 {
			cur := h.CountAtLeast(th)
			if cur > prev+1e-9 || cur < 0 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCountAtLeastApproximationBound(t *testing.T) {
	// The uniform-in-bin estimate can be off by at most one bin's count for
	// thresholds inside a bin; verify against exact counting.
	rng := rand.New(rand.NewSource(42))
	h := New()
	ds := make([]uint64, 0, 5000)
	for i := 0; i < 5000; i++ {
		d := uint64(rng.Intn(1 << 14))
		ds = append(ds, d)
		h.Add(d)
	}
	for _, th := range []uint64{100, 300, 1000, 3000, 9000} {
		var exact float64
		for _, d := range ds {
			if d >= th {
				exact++
			}
		}
		got := h.CountAtLeast(th)
		// Relative distance error per sample is bounded by one sub-bucket
		// (1/8 of an octave); allow a generous tolerance tied to bin size.
		tol := float64(th)/float64(DefaultResolution)*float64(len(ds))/float64(1<<14) + 1
		if diff := got - exact; diff > tol || diff < -tol {
			t.Errorf("CountAtLeast(%d) = %.1f, exact %.1f (tolerance %.1f)", th, got, exact, tol)
		}
	}
}

func TestMergeMatchesCombinedAdds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b, both := New(), New(), New()
		for i := 0; i < 300; i++ {
			d := uint64(rng.Intn(1 << 20))
			if rng.Intn(10) == 0 {
				d = Cold
			}
			if rng.Intn(2) == 0 {
				a.Add(d)
			} else {
				b.Add(d)
			}
			both.Add(d)
		}
		a.Merge(b)
		if a.Total() != both.Total() || a.Cold() != both.Cold() || a.Max() != both.Max() {
			return false
		}
		// Compare bin by bin.
		type key struct{ lo, hi uint64 }
		m := map[key]uint64{}
		a.Each(func(bn Bin) { m[key{bn.Lo, bn.Hi}] = bn.Count })
		equal := true
		both.Each(func(bn Bin) {
			if m[key{bn.Lo, bn.Hi}] != bn.Count {
				equal = false
			}
		})
		return equal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	h := New()
	for i := 0; i < 100; i++ {
		h.Add(10)
	}
	for i := 0; i < 100; i++ {
		h.Add(100)
	}
	if q := h.Quantile(0.25); q != 10 {
		t.Errorf("Quantile(0.25) = %d, want 10", q)
	}
	if q := h.Quantile(1.0); q != 100 {
		t.Errorf("Quantile(1.0) = %d, want 100", q)
	}
	empty := New()
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty Quantile = %d, want 0", q)
	}
}

func TestMean(t *testing.T) {
	h := New()
	h.AddN(10, 5)
	h.AddN(20, 5)
	if m := h.Mean(); m != 15 {
		t.Errorf("Mean = %v, want 15 (exact bins)", m)
	}
}

func TestCloneIndependence(t *testing.T) {
	h := New()
	h.Add(7)
	c := h.Clone()
	c.Add(9)
	if h.Total() != 1 || c.Total() != 2 {
		t.Errorf("clone not independent: h.Total=%d c.Total=%d", h.Total(), c.Total())
	}
}

func TestResolutionTradeoff(t *testing.T) {
	// Higher resolution must never produce wider bins.
	coarse, fine := NewRes(2), NewRes(64)
	for _, d := range []uint64{300, 5000, 1 << 20} {
		cl, ch := coarse.binBounds(coarse.binIndex(d))
		fl, fh := fine.binBounds(fine.binIndex(d))
		if fh-fl > ch-cl {
			t.Errorf("d=%d: fine bin [%d,%d] wider than coarse [%d,%d]", d, fl, fh, cl, ch)
		}
	}
}

func TestInvalidResolutionPanics(t *testing.T) {
	for _, res := range []int{0, 3, 512, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRes(%d) did not panic", res)
				}
			}()
			NewRes(res)
		}()
	}
}

func BenchmarkAdd(b *testing.B) {
	h := New()
	rng := rand.New(rand.NewSource(1))
	ds := make([]uint64, 4096)
	for i := range ds {
		ds[i] = uint64(rng.Intn(1 << 24))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(ds[i&4095])
	}
}

func TestGobRoundTrip(t *testing.T) {
	h := NewRes(16)
	h.AddN(5, 10)
	h.AddN(100000, 3)
	h.Add(Cold)
	data, err := h.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := back.GobDecode(data); err != nil {
		t.Fatal(err)
	}
	if back.Total() != h.Total() || back.Cold() != h.Cold() || back.Max() != h.Max() {
		t.Errorf("round trip lost counters: %v vs %v", back.String(), h.String())
	}
	if back.Resolution() != 16 {
		t.Errorf("resolution = %d, want 16", back.Resolution())
	}
	if back.Bins() != h.Bins() {
		t.Errorf("bins = %d, want %d", back.Bins(), h.Bins())
	}
	// The decoded histogram accepts further samples.
	back.Add(7)
	if back.Total() != h.Total()+1 {
		t.Error("decoded histogram not usable")
	}
	// Decoding garbage fails.
	var bad Histogram
	if err := bad.GobDecode([]byte("junk")); err == nil {
		t.Error("garbage should fail to decode")
	}
}

// TestGobDecodeRejectsCorruptWire checks that decoding refuses a
// resolution NewRes would refuse and a bin past the one the largest
// finite distance maps to, in both wire formats, so a crafted stream
// cannot size the flat bin store; the last real bin still decodes.
func TestGobDecodeRejectsCorruptWire(t *testing.T) {
	encode := func(w histogramWire) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	last := NewRes(256).binIndex(Cold - 1)
	for name, w := range map[string]histogramWire{
		"resolution 0":     {Sub: 0},
		"resolution 3":     {Sub: 3, BinIdx: []uint32{5}, BinCnt: []uint64{1}},
		"resolution 512":   {Sub: 512},
		"bin past the end": {Sub: 256, BinIdx: []uint32{last + 1}, BinCnt: []uint64{1}},
		"bin 1<<31":        {Sub: 8, BinIdx: []uint32{1 << 31}, BinCnt: []uint64{1}},
		"legacy bin 1<<31": {Sub: 8, Counts: map[uint32]uint64{1 << 31: 1}},
	} {
		var h Histogram
		if err := h.GobDecode(encode(w)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	var h Histogram
	if err := h.GobDecode(encode(histogramWire{Sub: 256, BinIdx: []uint32{last}, BinCnt: []uint64{1}, Total: 1})); err != nil {
		t.Fatalf("last bin: %v", err)
	}
	if lo, hi := h.binBounds(last); Cold-1 < lo || Cold-1 > hi {
		t.Errorf("last bin covers [%d, %d], not %d", lo, hi, uint64(Cold-1))
	}
}

func TestStringSummary(t *testing.T) {
	h := New()
	if got := h.String(); got != "histo{total=0 cold=0}" {
		t.Errorf("empty String = %q", got)
	}
	h.AddN(10, 4)
	h.Add(Cold)
	s := h.String()
	for _, want := range []string{"total=4", "cold=1", "p50=10"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
}
