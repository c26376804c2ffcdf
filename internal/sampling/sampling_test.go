package sampling

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		cfg  Config
		want bool
	}{
		{Config{}, false},
		// Rate 1 is "sample everything": exact results through the full
		// admission machinery.
		{Config{Rate: 1}, true},
		{Config{Rate: 2}, true},
		{Config{MaxBlocks: 64}, true},
		{Config{Rate: 1, MaxBlocks: 64}, true},
	}
	for _, c := range cases {
		if got := c.cfg.Enabled(); got != c.want {
			t.Errorf("Enabled(%+v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		{},
		{Rate: 1},
		{Rate: 64},
		{Rate: MaxRate},
		{MaxBlocks: MinMaxBlocks},
		{Rate: 8, MaxBlocks: 1 << 20, Seed: 42},
		{Rate: 1, Seed: 5},
		{MaxBlocks: MinMaxBlocks, Seed: 5},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{Rate: 3},
		{Rate: 65},
		{Rate: MaxRate * 2},
		{MaxBlocks: -1},
		{MaxBlocks: MinMaxBlocks - 1},
		// A seed with sampling off would be dropped without a word.
		{Seed: 5},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
}

func TestConfigNormalized(t *testing.T) {
	n := Config{}.Normalized()
	if n.Rate != 1 || n.Seed != DefaultSeed {
		t.Fatalf("Normalized zero config = %+v", n)
	}
	c := Config{Rate: 8, Seed: 7, MaxBlocks: 100}
	if got := c.Normalized(); got != c {
		t.Fatalf("Normalized(%+v) = %+v, want unchanged", c, got)
	}
}

func TestCapBlocks(t *testing.T) {
	cases := []struct {
		cfg  Config
		n    int
		want int
	}{
		{Config{}, 1 << 20, 1 << 20},
		{Config{Rate: 64}, 1 << 20, 1 << 14},
		{Config{MaxBlocks: 4096}, 1 << 20, 4096},
		{Config{MaxBlocks: 4096}, 100, 100},
		{Config{Rate: 64, MaxBlocks: 4096}, 1 << 20, 4096},
		{Config{Rate: 64, MaxBlocks: 1 << 20}, 1 << 20, 1 << 14},
	}
	for _, c := range cases {
		if got := c.cfg.CapBlocks(c.n); got != c.want {
			t.Errorf("CapBlocks(%+v, %d) = %d, want %d", c.cfg, c.n, got, c.want)
		}
	}
}

// TestAdmitPure is the ISSUE's property test: admission is a pure
// function of (seed, block) — same inputs, same verdict, across
// independently built samplers.
func TestAdmitPure(t *testing.T) {
	prop := func(seed, block uint64) bool {
		a := New(Config{Rate: 64, Seed: seed})
		b := New(Config{Rate: 64, Seed: seed})
		h1, h2 := Hash(a.seed, block), Hash(b.seed, block)
		return h1 == h2 && a.Admit(block) == b.Admit(block)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashRange(t *testing.T) {
	for _, b := range []uint64{0, 1, 127, 1 << 32, math.MaxUint64} {
		if h := Hash(DefaultSeed, b); h >= Modulus {
			t.Fatalf("Hash(%d) = %d out of range", b, h)
		}
	}
}

// TestAdmitFraction: the admitted fraction over dense and strided block
// ranges must track 1/R closely — the mixer must not correlate with
// common address patterns.
func TestAdmitFraction(t *testing.T) {
	const n = 1 << 16
	for _, rate := range []uint64{2, 8, 64, 1024} {
		s := New(Config{Rate: rate})
		for _, stride := range []uint64{1, 2, 16, 128, 4096} {
			admitted := 0
			for i := uint64(0); i < n; i++ {
				if s.Admit(i * stride) {
					admitted++
				}
			}
			got := float64(admitted) / n
			want := 1 / float64(rate)
			if math.Abs(got-want) > 4*math.Sqrt(want*(1-want)/n) {
				t.Errorf("rate %d stride %d: admitted fraction %.5f, want ~%.5f",
					rate, stride, got, want)
			}
		}
	}
}

func TestHalve(t *testing.T) {
	s := New(Config{Rate: 4, MaxBlocks: 1024})
	if s.Rate() != 4 || s.Threshold() != Modulus/4 {
		t.Fatalf("initial rate/threshold %d/%d", s.Rate(), s.Threshold())
	}
	// Halving must only shrink the admitted set: anything admitted after
	// a halve was admitted before it.
	before := map[uint64]bool{}
	for b := uint64(0); b < 1<<12; b++ {
		before[b] = s.Admit(b)
	}
	s.Halve()
	if s.Rate() != 8 || s.Threshold() != Modulus/8 {
		t.Fatalf("post-halve rate/threshold %d/%d", s.Rate(), s.Threshold())
	}
	for b := uint64(0); b < 1<<12; b++ {
		if s.Admit(b) && !before[b] {
			t.Fatalf("block %d admitted after halve but not before", b)
		}
	}
	// Halve saturates at threshold 1.
	for i := 0; i < 40; i++ {
		s.Halve()
	}
	if s.Threshold() != 1 || s.CanHalve() {
		t.Fatalf("saturated threshold %d, CanHalve %v", s.Threshold(), s.CanHalve())
	}
	r := s.Rate()
	s.Halve()
	if s.Rate() != r {
		t.Fatal("Halve at floor changed rate")
	}
}

func TestSeedChangesSample(t *testing.T) {
	a := New(Config{Rate: 8, Seed: 1})
	b := New(Config{Rate: 8, Seed: 2})
	same := 0
	const n = 1 << 14
	for i := uint64(0); i < n; i++ {
		if a.Admit(i) == b.Admit(i) {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds admitted identical sets")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config did not panic")
		}
	}()
	New(Config{Rate: 3})
}

func TestString(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{}, "off"},
		{Config{Rate: 64}, "fixed 1/64"},
		{Config{Rate: 8, MaxBlocks: 4096}, "adaptive(start 1/8, max 4096 blocks)"},
		{Config{MaxBlocks: 4096}, "adaptive(start 1/1, max 4096 blocks)"},
	}
	for _, c := range cases {
		if got := c.cfg.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.cfg, got, c.want)
		}
	}
}

func BenchmarkAdmit(b *testing.B) {
	s := New(Config{Rate: 64})
	var admitted uint64
	for i := 0; i < b.N; i++ {
		if s.Admit(uint64(i)) {
			admitted++
		}
	}
	_ = admitted
}
