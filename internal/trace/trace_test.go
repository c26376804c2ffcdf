package trace

import (
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
	if len(rec.Events) != 3 {
		t.Fatalf("events = %d", len(rec.Events))
	}
	if rec.Events[0].Kind != EvEnter || rec.Events[0].Scope != 7 {
		t.Errorf("event 0 = %+v", rec.Events[0])
	}
	e := rec.Events[1]
	if e.Kind != EvAccess || e.Ref != 3 || e.Addr != 0x1000 || e.Size != 16 || !e.Write {
		t.Errorf("event 1 = %+v", e)
	}
	if rec.Events[2].Kind != EvExit {
		t.Errorf("event 2 = %+v", rec.Events[2])
	}
}

func TestDiscardDoesNothing(t *testing.T) {
	var d Discard
	d.EnterScope(1)
	d.Access(1, 2, 3, true)
	d.ExitScope(1)
	// Nothing to assert: Discard must simply not panic.
}
