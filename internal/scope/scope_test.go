package scope

import (
	"math/rand"
	"testing"
	"testing/quick"

	"reusetool/internal/trace"
)

// buildSample constructs:
//
//	program
//	└── file main.f
//	    ├── routine sweep
//	    │   ├── loop iq
//	    │   │   └── loop idiag
//	    │   │       └── loop jkm
//	    │   └── loop cleanup
//	    └── routine source
func buildSample() (*Tree, map[string]trace.ScopeID) {
	t := NewTree("prog")
	ids := map[string]trace.ScopeID{}
	ids["file"] = t.Add(t.Root(), KindFile, "main.f", 0)
	ids["sweep"] = t.Add(ids["file"], KindRoutine, "sweep", 100)
	ids["iq"] = t.Add(ids["sweep"], KindLoop, "iq", 131)
	ids["idiag"] = t.Add(ids["iq"], KindLoop, "idiag", 326)
	ids["jkm"] = t.Add(ids["idiag"], KindLoop, "jkm", 353)
	ids["cleanup"] = t.Add(ids["sweep"], KindLoop, "cleanup", 600)
	ids["source"] = t.Add(ids["file"], KindRoutine, "source", 700)
	return t, ids
}

func TestTreeStructure(t *testing.T) {
	tr, ids := buildSample()
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	if tr.Parent(ids["jkm"]) != ids["idiag"] {
		t.Error("jkm parent is not idiag")
	}
	if tr.Depth(tr.Root()) != 0 {
		t.Error("root depth != 0")
	}
	if d := tr.Depth(ids["jkm"]); d != 5 {
		t.Errorf("jkm depth = %d, want 5", d)
	}
	if !tr.IsAncestor(ids["sweep"], ids["jkm"]) {
		t.Error("sweep should be ancestor of jkm")
	}
	if tr.IsAncestor(ids["jkm"], ids["sweep"]) {
		t.Error("jkm should not be ancestor of sweep")
	}
	if !tr.IsAncestor(ids["jkm"], ids["jkm"]) {
		t.Error("a scope is its own ancestor")
	}
}

func TestCommonAncestor(t *testing.T) {
	tr, ids := buildSample()
	cases := []struct {
		a, b, want trace.ScopeID
	}{
		{ids["jkm"], ids["cleanup"], ids["sweep"]},
		{ids["jkm"], ids["idiag"], ids["idiag"]},
		{ids["jkm"], ids["source"], ids["file"]},
		{ids["sweep"], ids["sweep"], ids["sweep"]},
		{tr.Root(), ids["jkm"], tr.Root()},
	}
	for _, c := range cases {
		if got := tr.CommonAncestor(c.a, c.b); got != c.want {
			t.Errorf("CommonAncestor(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := tr.CommonAncestor(c.b, c.a); got != c.want {
			t.Errorf("CommonAncestor(%d,%d) = %d, want %d", c.b, c.a, got, c.want)
		}
	}
}

func TestEnclosingRoutine(t *testing.T) {
	tr, ids := buildSample()
	if got := tr.EnclosingRoutine(ids["jkm"]); got != ids["sweep"] {
		t.Errorf("EnclosingRoutine(jkm) = %d, want sweep", got)
	}
	if got := tr.EnclosingRoutine(ids["sweep"]); got != ids["sweep"] {
		t.Errorf("EnclosingRoutine(sweep) = %d, want itself", got)
	}
	if got := tr.EnclosingRoutine(tr.Root()); got != trace.NoScope {
		t.Errorf("EnclosingRoutine(root) = %d, want NoScope", got)
	}
}

func TestInclusiveAggregation(t *testing.T) {
	tr, ids := buildSample()
	excl := make([]float64, tr.Len())
	excl[ids["jkm"]] = 10
	excl[ids["idiag"]] = 5
	excl[ids["cleanup"]] = 2
	excl[ids["source"]] = 3
	incl := tr.Inclusive(excl)
	if incl[ids["jkm"]] != 10 {
		t.Errorf("incl[jkm] = %v, want 10", incl[ids["jkm"]])
	}
	if incl[ids["idiag"]] != 15 {
		t.Errorf("incl[idiag] = %v, want 15", incl[ids["idiag"]])
	}
	if incl[ids["iq"]] != 15 {
		t.Errorf("incl[iq] = %v, want 15", incl[ids["iq"]])
	}
	if incl[ids["sweep"]] != 17 {
		t.Errorf("incl[sweep] = %v, want 17", incl[ids["sweep"]])
	}
	if incl[tr.Root()] != 20 {
		t.Errorf("incl[root] = %v, want 20", incl[tr.Root()])
	}
}

func TestLabelAndPath(t *testing.T) {
	tr, ids := buildSample()
	if got := tr.Label(ids["idiag"]); got != "loop idiag@326" {
		t.Errorf("Label = %q", got)
	}
	if got := tr.Label(trace.NoScope); got != "<none>" {
		t.Errorf("Label(NoScope) = %q", got)
	}
	want := "program prog/file main.f/routine sweep@100/loop iq@131/loop idiag@326"
	if got := tr.Path(ids["idiag"]); got != want {
		t.Errorf("Path = %q, want %q", got, want)
	}
}

func TestPreOrderVisitsAllOnce(t *testing.T) {
	tr, _ := buildSample()
	seen := map[trace.ScopeID]int{}
	tr.PreOrder(func(id trace.ScopeID) { seen[id]++ })
	if len(seen) != tr.Len() {
		t.Fatalf("visited %d scopes, want %d", len(seen), tr.Len())
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("scope %d visited %d times", id, n)
		}
	}
}

func TestSortedByMetric(t *testing.T) {
	vals := []float64{1, 10, 5, 10}
	got := SortedByMetric(vals)
	want := []trace.ScopeID{1, 3, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortedByMetric = %v, want %v", got, want)
		}
	}
}

func TestStackBasics(t *testing.T) {
	var st Stack
	st.Enter(1, 0)
	st.Enter(2, 10)
	st.Enter(3, 20)
	if st.Depth() != 3 || st.Top() != 3 {
		t.Fatalf("Depth=%d Top=%d", st.Depth(), st.Top())
	}
	if got := st.Exit(); got != 3 {
		t.Fatalf("Exit = %d, want 3", got)
	}
	if st.Top() != 2 {
		t.Fatalf("Top = %d, want 2", st.Top())
	}
}

func TestCarryingSemantics(t *testing.T) {
	var st Stack
	st.Enter(1, 0)  // outer, entered at clock 0
	st.Enter(2, 10) // entered at clock 10
	st.Enter(3, 10) // same clock: no access between the two enters
	st.Enter(4, 25)

	cases := []struct {
		prev uint64
		want trace.ScopeID
	}{
		{30, 4},            // all scopes entered before access 30; innermost wins
		{25, 3},            // scope 4 entered at 25, not strictly before 25
		{26, 4},            // strictly after 25
		{11, 3},            // scopes 2,3 entered at clock 10 < 11; innermost of those is 3
		{10, 1},            // entries at clock 10 are not strictly before time 10
		{1, 1},             // only the outermost qualifies
		{0, trace.NoScope}, // nothing entered strictly before time 0
	}
	for _, c := range cases {
		if got := st.Carrying(c.prev); got != c.want {
			t.Errorf("Carrying(%d) = %d, want %d", c.prev, got, c.want)
		}
		if got := st.CarryingLinear(c.prev); got != c.want {
			t.Errorf("CarryingLinear(%d) = %d, want %d", c.prev, got, c.want)
		}
	}

	// A top scope entered at exactly prevTime carries nothing: the query
	// falls through to an outer scope, past every scope entered at that
	// clock, and to NoScope when no scope is left.
	st.Enter(5, 25)
	var one, empty Stack
	one.Enter(7, 40)
	for _, c := range []struct {
		st   *Stack
		prev uint64
		want trace.ScopeID
	}{
		{&st, 25, 3},
		{&st, 26, 5},
		{&one, 40, trace.NoScope},
		{&one, 41, 7},
		{&empty, 1, trace.NoScope},
	} {
		if got := c.st.Carrying(c.prev); got != c.want {
			t.Errorf("depth %d: Carrying(%d) = %d, want %d", c.st.Depth(), c.prev, got, c.want)
		}
		if got := c.st.CarryingLinear(c.prev); got != c.want {
			t.Errorf("depth %d: CarryingLinear(%d) = %d, want %d", c.st.Depth(), c.prev, got, c.want)
		}
	}
}

// TestCarryingMatchesLinearQuick cross-checks binary search against the
// paper's top-down scan on random stacks.
func TestCarryingMatchesLinearQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var st Stack
		clock := uint64(0)
		for i := 0; i < 30; i++ {
			clock += uint64(rng.Intn(3)) // allow repeated clocks
			st.Enter(trace.ScopeID(i), clock)
		}
		for q := 0; q < 100; q++ {
			prev := uint64(rng.Intn(int(clock) + 5))
			if st.Carrying(prev) != st.CarryingLinear(prev) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCarryingBinary(b *testing.B) { benchCarrying(b, true) }
func BenchmarkCarryingLinear(b *testing.B) { benchCarrying(b, false) }

func benchCarrying(b *testing.B, binary bool) {
	var st Stack
	for i := 0; i < 12; i++ { // realistic nesting depth
		st.Enter(trace.ScopeID(i), uint64(i*1000))
	}
	rng := rand.New(rand.NewSource(1))
	queries := make([]uint64, 1024)
	for i := range queries {
		queries[i] = uint64(rng.Intn(13000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i&1023]
		if binary {
			st.Carrying(q)
		} else {
			st.CarryingLinear(q)
		}
	}
}
