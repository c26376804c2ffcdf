package staticreuse

import (
	"math"
	"testing"

	"reusetool/internal/interp"
	"reusetool/internal/lang"
	"reusetool/internal/trace"
	"reusetool/internal/workloads"
)

func TestCollectStatsStream(t *testing.T) {
	info := workloads.MustFinalize(workloads.Stream(1024, 4))
	mach, err := interp.Layout(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := collectStats(info, mach)
	if st.Approx {
		t.Error("stream should be fully decidable")
	}
	// One reference (a[i]) executed N*T times.
	var total float64
	for _, ref := range info.Refs {
		total += st.RefTotal(ref.ID())
	}
	if want := 1024.0 * 4; total != want {
		t.Errorf("total accesses = %v, want %v", total, want)
	}
	// The inner loop runs N trips per execution.
	for _, ref := range info.Refs {
		loops := info.LoopsOf(ref.ID())
		if len(loops) != 2 {
			t.Fatalf("expected 2 enclosing loops, got %d", len(loops))
		}
		if got := st.Trips(loops[0].Scope(), 0); got != 1024 {
			t.Errorf("inner trips = %v, want 1024", got)
		}
		if got := st.Trips(loops[1].Scope(), 0); got != 4 {
			t.Errorf("outer trips = %v, want 4", got)
		}
	}
}

func TestCollectStatsOrdersRefs(t *testing.T) {
	info := workloads.MustFinalize(workloads.Fig1(false))
	mach, err := interp.Layout(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := collectStats(info, mach)
	last := -1
	for _, id := range st.orderedRefs {
		o := st.Order(id)
		if o <= last {
			t.Fatalf("orderedRefs not strictly increasing at ref %d", id)
		}
		last = o
	}
}

func TestBlocksOf(t *testing.T) {
	cases := []struct {
		name   string
		consts []int64
		elem   int64
		dims   []dim
		bs     int64
		want   float64
		tol    float64
	}{
		// 1024 sequential 8-byte elements in 128-byte blocks: ~64 blocks
		// (the model assumes arbitrary alignment, adding up to one block).
		{"sequential", []int64{0}, 8, []dim{{8, 1024}}, 128, 64, 1},
		// Stride jumps a full block each iteration: one block per trip.
		{"strided", []int64{0}, 8, []dim{{256, 16}}, 128, 16, 0},
		// Two offsets one element apart share blocks.
		{"pair", []int64{0, 8}, 8, []dim{{8, 128}}, 128, 9, 1},
		// Row sweep replicated over a large row pitch: 4 rows of one block
		// each, ~2 at unaligned starts.
		{"rows", []int64{0}, 8, []dim{{8, 16}, {4096, 4}}, 128, 6, 2},
		// Zero-stride and single-trip dims are ignored.
		{"degenerate", []int64{0}, 8, []dim{{0, 100}, {8, 1}}, 128, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := blocksOf(tc.consts, tc.elem, tc.dims, tc.bs)
			if math.Abs(got-tc.want) > tc.tol {
				t.Errorf("blocksOf = %v, want %v ± %v", got, tc.want, tc.tol)
			}
		})
	}
}

// TestLoopVariableAfterLoop: after "for i = 0 .. 3" the interpreter
// leaves i at 3, its last value, so the second loop runs 25 times and
// the program makes 4 + 25 accesses.
func TestLoopVariableAfterLoop(t *testing.T) {
	prog, _, err := lang.Parse(`program p
param N 64
array A f64 [N]
array B f64 [N]
routine main file p.f line 1 {
  for i = 0 .. 3 line 2 {
    access B[i]
  }
  for j = 0 .. i*8 line 5 {
    access A[j]
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.Layout(info, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := collectStats(info, mach)
	var static float64
	for _, ref := range info.Refs {
		static += st.RefTotal(ref.ID())
	}
	run, err := interp.Run(info, nil, trace.Discard{})
	if err != nil {
		t.Fatal(err)
	}
	if static != float64(run.Accesses) || run.Accesses != 29 {
		t.Errorf("static accesses = %v, dynamic = %d, want both 29", static, run.Accesses)
	}
}
