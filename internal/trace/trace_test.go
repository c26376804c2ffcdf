package trace

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEventIs24Bytes pins Event's packed size: a 4096-event fan-out
// batch is 96 KB, where the field order Kind-first made it 128 KB.
func TestEventIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 24 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 24", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.EnterScope(1)
	c.EnterScope(2)
	c.Access(1, 100, 8, false)
	c.Access(1, 108, 4, true)
	c.ExitScope(2)
	c.EnterScope(3)
	c.ExitScope(3)
	c.ExitScope(1)

	if c.Enters != 3 || c.Exits != 3 {
		t.Errorf("enters/exits = %d/%d, want 3/3", c.Enters, c.Exits)
	}
	if c.Accesses != 2 || c.Reads != 1 || c.Writes != 1 {
		t.Errorf("accesses = %d r=%d w=%d", c.Accesses, c.Reads, c.Writes)
	}
	if c.Bytes != 12 {
		t.Errorf("bytes = %d, want 12", c.Bytes)
	}
	if c.MaxDepth != 2 {
		t.Errorf("max depth = %d, want 2", c.MaxDepth)
	}
}

func TestMultiFansOut(t *testing.T) {
	var a, b Counter
	m := Multi{&a, &b}
	m.EnterScope(1)
	m.Access(0, 0, 8, false)
	m.ExitScope(1)
	if a.Accesses != 1 || b.Accesses != 1 {
		t.Error("multi did not fan out accesses")
	}
	if a.Enters != 1 || b.Exits != 1 {
		t.Error("multi did not fan out scope events")
	}
}

func TestRecorderReplayEquivalence(t *testing.T) {
	f := func(ops []uint8) bool {
		var rec Recorder
		var direct Counter
		m := Multi{&rec, &direct}
		depth := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				m.EnterScope(ScopeID(op))
				depth++
			case 1:
				if depth > 0 {
					m.ExitScope(ScopeID(op))
					depth--
				}
			case 2:
				m.Access(RefID(op%5), uint64(op)*64, 8, op%2 == 0)
			}
		}
		for depth > 0 {
			m.ExitScope(0)
			depth--
		}
		var replayed Counter
		rec.Replay(&replayed)
		return replayed == direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRecorderEventContents(t *testing.T) {
	var rec Recorder
	rec.EnterScope(7)
	rec.Access(3, 0x1000, 16, true)
	rec.ExitScope(7)
	events := rec.Expanded()
	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	if events[0].Kind != EvEnter || events[0].Scope != 7 {
		t.Errorf("event 0 = %+v", events[0])
	}
	e := events[1]
	if e.Kind != EvAccess || e.Ref != 3 || e.Addr != 0x1000 || e.Size != 16 || !e.Write {
		t.Errorf("event 1 = %+v", e)
	}
	if events[2].Kind != EvExit {
		t.Errorf("event 2 = %+v", events[2])
	}
}

func TestDiscardDoesNothing(t *testing.T) {
	var d Discard
	d.EnterScope(1)
	d.Access(1, 2, 3, true)
	d.ExitScope(1)
	// Nothing to assert: Discard must simply not panic.
}

// runCounter counts the runs it takes and ignores everything else.
type runCounter struct {
	Discard
	runs int
}

func (c *runCounter) AccessRun([]RunRef, uint64) { c.runs++ }

// TestMultiRuns: Multi hands a run to a handler that takes runs and
// expands it for one that does not; both see the stream the run
// stands for, in order, and Discard takes runs. A Recorder keeps the
// run and replays it whole.
func TestMultiRuns(t *testing.T) {
	refs := []RunRef{
		{Addr: 100, Delta: 8, Ref: 1, Size: 8},
		{Addr: 900, Delta: ^uint64(3), Ref: 2, Size: 4, Write: true}, // steps down by 4
		{Addr: 50, Ref: 3, Size: 2},
	}
	var want Recorder
	for k := uint64(0); k < 3; k++ {
		want.Access(1, 100+8*k, 8, false)
		want.Access(2, 900-4*k, 4, true)
		want.Access(3, 50, 2, false)
	}
	with, without := &Recorder{}, &Recorder{}
	m := Multi{with, struct{ Handler }{without}, Discard{}}
	m.AccessRun(refs, 3)
	for name, rec := range map[string]*Recorder{"with runs": with, "without runs": without} {
		if got := rec.Expanded(); !reflect.DeepEqual(got, want.Expanded()) {
			t.Errorf("%s: got %+v, want %+v", name, got, want.Expanded())
		}
	}
	var rc runCounter
	with.Replay(&rc)
	without.Replay(&rc)
	if rc.runs != 1 {
		t.Errorf("the recordings replay %d runs, want the one the run handler took", rc.runs)
	}
}
