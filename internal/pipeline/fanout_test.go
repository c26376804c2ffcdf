package pipeline

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reusetool/internal/trace"
)

// drive pushes a deterministic mixed stream of n access events (with
// scope brackets every 100) through h.
func drive(h trace.Handler, n int) {
	h.EnterScope(0)
	for i := 0; i < n; i++ {
		if i%100 == 0 {
			h.EnterScope(trace.ScopeID(1 + i%7))
		}
		h.Access(trace.RefID(i%13), uint64(i*64), 8, i%3 == 0)
		if i%100 == 99 {
			h.ExitScope(trace.ScopeID(1 + (i-99)%7))
		}
	}
	h.ExitScope(0)
}

func TestFanoutMatchesMulti(t *testing.T) {
	const n = 10000
	// Sequential reference.
	var seq [3]trace.Recorder
	drive(trace.Multi{&seq[0], &seq[1], &seq[2]}, n)

	var par [3]trace.Recorder
	f := newFanout(64, 2, &par[0], &par[1], &par[2])
	drive(f, n)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range par {
		if got, want := par[i].Expanded(), seq[i].Expanded(); !reflect.DeepEqual(got, want) {
			t.Fatalf("consumer %d saw a different stream (%d vs %d events)", i, len(got), len(want))
		}
	}
}

func TestFanoutCounters(t *testing.T) {
	var a, b trace.Counter
	f := NewFanout(&a, &b)
	drive(f, 5000)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("consumers disagree: %+v vs %+v", a, b)
	}
	if a.Accesses != 5000 {
		t.Fatalf("accesses = %d, want 5000", a.Accesses)
	}
	if a.Enters != a.Exits {
		t.Fatalf("unbalanced scopes: %d enters, %d exits", a.Enters, a.Exits)
	}
}

// slowHandler simulates a consumer that lags behind the producer. Its
// access count is atomic because the test samples it concurrently.
type slowHandler struct {
	delay    time.Duration
	accesses atomic.Int64
}

func (s *slowHandler) EnterScope(trace.ScopeID) {}
func (s *slowHandler) ExitScope(trace.ScopeID)  {}

func (s *slowHandler) Access(trace.RefID, uint64, uint32, bool) {
	time.Sleep(s.delay)
	s.accesses.Add(1)
}

// TestFanoutBackpressure checks that a slow consumer bounds the
// producer's buffering: the slow ring can never hold more than its 2
// batches of 8 events, so the producer must block rather than run ahead
// of the consumer by more than that window.
func TestFanoutBackpressure(t *testing.T) {
	slow := &slowHandler{delay: 50 * time.Microsecond}
	var produced atomic.Int64
	f := newFanout(8, 2, slow)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			f.Access(0, uint64(i), 8, false)
			produced.Add(1)
		}
	}()
	// Sample the in-flight window while the producer runs: events
	// produced but not yet consumed can never exceed the rings plus the
	// fill batch plus the batch being replayed.
	limit := int64(8 * (2 + 2))
	for {
		select {
		case <-done:
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := slow.accesses.Load(); got != 400 {
				t.Fatalf("slow consumer saw %d accesses, want 400", got)
			}
			return
		default:
			if ahead := produced.Load() - slow.accesses.Load(); ahead > limit {
				t.Fatalf("producer ran %d events ahead of slow consumer (limit %d)", ahead, limit)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// panicHandler fails on the k-th access.
type panicHandler struct {
	trace.Counter
	k int
}

func (p *panicHandler) Access(ref trace.RefID, addr uint64, size uint32, w bool) {
	p.Counter.Access(ref, addr, size, w)
	if int(p.Counter.Accesses) == p.k {
		panic(fmt.Sprintf("handler failed at access %d", p.k))
	}
}

func TestFanoutSurfacesConsumerError(t *testing.T) {
	var ok trace.Counter
	bad := &panicHandler{k: 500}
	f := newFanout(32, 2, &ok, bad)
	drive(f, 2000)
	err := f.Close()
	if err == nil {
		t.Fatal("Close did not surface the consumer panic")
	}
	if !strings.Contains(err.Error(), "failed at access 500") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The healthy consumer still processed the full stream.
	if ok.Accesses != 2000 {
		t.Fatalf("healthy consumer saw %d accesses, want 2000", ok.Accesses)
	}
}

func TestFanoutCloseTwice(t *testing.T) {
	f := NewFanout(trace.Discard{})
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err == nil {
		t.Fatal("second Close should error")
	}
}

func TestFanoutEmptyStream(t *testing.T) {
	var c trace.Counter
	f := NewFanout(&c)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Accesses != 0 || c.Enters != 0 {
		t.Fatalf("events on an empty stream: %+v", c)
	}
}

func TestForEach(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 16} {
		var sum atomic.Int64
		if err := ForEach(jobs, 100, func(i int) error {
			sum.Add(int64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if sum.Load() != 4950 {
			t.Fatalf("jobs=%d: sum = %d, want 4950", jobs, sum.Load())
		}
	}
}

func TestForEachError(t *testing.T) {
	err := ForEach(4, 100, func(i int) error {
		if i == 7 {
			return fmt.Errorf("boom at %d", i)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

// runCounter counts the runs it takes and ignores everything else.
type runCounter struct {
	trace.Discard
	runs int
}

func (c *runCounter) AccessRun([]trace.RunRef, uint64) { c.runs++ }

// runsIn counts the runs a recording holds.
func runsIn(rec *trace.Recorder) int {
	var c runCounter
	rec.Replay(&c)
	return c.runs
}

// runRefs returns n run references with distinct sizes, directions and
// read/write modes.
func runRefs(n int) []trace.RunRef {
	refs := make([]trace.RunRef, n)
	for i := range refs {
		refs[i] = trace.RunRef{Addr: uint64(1<<20 + 4096*i), Delta: uint64(8 * (i%3 - 1)), Ref: trace.RefID(i), Size: uint32(4 << (i % 2)), Write: i%2 == 0}
	}
	return refs
}

// driveRuns pushes runs of every shape the fan-out treats differently
// through h, between scope events and plain accesses: runs too short to
// encode, runs longer than a batch's work bound, a run too wide for one
// batch, and a run with no references.
func driveRuns(h trace.RunHandler, batch int) {
	h.EnterScope(0)
	for _, s := range []struct{ n, iters int }{
		{1, 1}, {2, 2}, {3, 3}, {1, 100}, {3, 5000}, {batch, 4}, {0, 10}, {2, 1000}, {5, 37},
	} {
		h.EnterScope(1)
		h.Access(99, uint64(s.n), 8, false)
		h.AccessRun(runRefs(s.n), uint64(s.iters))
		h.ExitScope(1)
	}
	h.ExitScope(0)
}

// TestFanoutRunsMatchExpansion: a consumer that takes runs and one that
// does not each see exactly the stream the runs expand to, whatever the
// shape of the runs.
func TestFanoutRunsMatchExpansion(t *testing.T) {
	const batch = 16
	var want trace.Recorder
	driveRuns(&want, batch)

	withRuns, without := &trace.Recorder{}, &trace.Recorder{}
	f := newFanout(batch, 2, withRuns, struct{ trace.Handler }{without})
	driveRuns(f, batch)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]*trace.Recorder{"with runs": withRuns, "without runs": without} {
		if got := rec.Expanded(); !reflect.DeepEqual(got, want.Expanded()) {
			t.Errorf("consumer %s saw %d events, want the %d of the expanded stream", name, len(got), len(want.Expanded()))
		}
	}
	if n := runsIn(without); n != 0 {
		t.Errorf("the consumer without runs got %d runs", n)
	}
	// 3×5000 accesses split at 16×16 per batch, 2×1000 at the same;
	// the short, wide and empty runs travel as accesses.
	if n := runsIn(withRuns); n < 15000/(batchWork*batch)+2000/(batchWork*batch) {
		t.Errorf("the run consumer got %d runs, want the long runs split by the work bound", n)
	}
}

// TestFanoutRunLagBound: runs cannot carry the producer further ahead
// of a slow consumer than the rings, the fill batch and the batch being
// replayed, each bounded by the work bound of a batch.
func TestFanoutRunLagBound(t *testing.T) {
	const batch, ringSize = 8, 2
	slow := &slowHandler{delay: 20 * time.Microsecond}
	var produced atomic.Int64
	f := newFanout(batch, ringSize, slow)
	done := make(chan struct{})
	refs := []trace.RunRef{{Addr: 4096, Delta: 8, Size: 8}}
	go func() {
		defer close(done)
		for i := 0; i < 16; i++ {
			f.AccessRun(refs, 100)
			produced.Add(100)
		}
	}()
	limit := int64((ringSize + 2) * batchWork * batch)
	for {
		select {
		case <-done:
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			if got := slow.accesses.Load(); got != 1600 {
				t.Fatalf("slow consumer saw %d accesses, want 1600", got)
			}
			return
		default:
			if ahead := produced.Load() - slow.accesses.Load(); ahead > limit {
				t.Fatalf("producer ran %d accesses ahead of the slow consumer (limit %d)", ahead, limit)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
}
