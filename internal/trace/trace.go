// Package trace defines the instrumentation event API that connects
// workload execution to the analysis engines.
//
// The paper instruments application binaries so that every memory reference
// invokes an event handler, and every routine/loop entry and exit is
// reported. This package is the Go equivalent of that contract: anything
// that can produce a stream of EnterScope/ExitScope/Access events (here, the
// IR interpreter in internal/interp) can feed anything that consumes one
// (the reuse-distance engine, the cache simulator, recorders, ...).
package trace

// RefID identifies a static memory reference (a load or store site).
// IDs are dense small integers assigned by the program representation.
type RefID int32

// ScopeID identifies a static program scope (program, file, routine, loop).
// IDs are dense small integers assigned by the scope tree.
type ScopeID int32

// NoScope marks the absence of a scope.
const NoScope ScopeID = -1

// Handler receives the instrumentation event stream.
//
// Access is called once per executed memory reference with the referenced
// virtual address and access size in bytes. EnterScope/ExitScope bracket
// dynamic instances of routines and loops; exits always match the most
// recent unmatched enter (the stream is properly nested).
type Handler interface {
	EnterScope(s ScopeID)
	ExitScope(s ScopeID)
	Access(ref RefID, addr uint64, size uint32, write bool)
}

// Multi fans one event stream out to several handlers, in order.
type Multi []Handler

// EnterScope implements Handler.
func (m Multi) EnterScope(s ScopeID) {
	for _, h := range m {
		h.EnterScope(s)
	}
}

// ExitScope implements Handler.
func (m Multi) ExitScope(s ScopeID) {
	for _, h := range m {
		h.ExitScope(s)
	}
}

// Access implements Handler.
func (m Multi) Access(ref RefID, addr uint64, size uint32, write bool) {
	for _, h := range m {
		h.Access(ref, addr, size, write)
	}
}

// Counter counts events; useful as a cheap sanity handler and in tests.
type Counter struct {
	Enters   uint64
	Exits    uint64
	Accesses uint64
	Reads    uint64
	Writes   uint64
	Bytes    uint64
	MaxDepth int
	depth    int
}

// EnterScope implements Handler.
func (c *Counter) EnterScope(ScopeID) {
	c.Enters++
	c.depth++
	if c.depth > c.MaxDepth {
		c.MaxDepth = c.depth
	}
}

// ExitScope implements Handler.
func (c *Counter) ExitScope(ScopeID) {
	c.Exits++
	c.depth--
}

// Access implements Handler.
func (c *Counter) Access(_ RefID, _ uint64, size uint32, write bool) {
	c.Accesses++
	c.Bytes += uint64(size)
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
}

// EventKind discriminates recorded events.
type EventKind uint8

// Recorded event kinds.
const (
	EvEnter EventKind = iota
	EvExit
	EvAccess
)

// Event is one recorded instrumentation event. Its fields are ordered
// for packing: 24 bytes, where Kind first pads it to 32. The fan-out
// holds events in batches of thousands, so the order sets the size of
// its batches.
type Event struct {
	Addr  uint64
	Scope ScopeID
	Ref   RefID
	Size  uint32
	Kind  EventKind
	Write bool
}

// Recorder appends every event to an in-memory buffer. It is intended for
// tests and for small traces that must be replayed against several handlers
// with different configurations.
type Recorder struct {
	Events []Event
}

// EnterScope implements Handler.
func (r *Recorder) EnterScope(s ScopeID) {
	r.Events = append(r.Events, Event{Kind: EvEnter, Scope: s})
}

// ExitScope implements Handler.
func (r *Recorder) ExitScope(s ScopeID) {
	r.Events = append(r.Events, Event{Kind: EvExit, Scope: s})
}

// Access implements Handler.
func (r *Recorder) Access(ref RefID, addr uint64, size uint32, write bool) {
	r.Events = append(r.Events, Event{Kind: EvAccess, Ref: ref, Addr: addr, Size: size, Write: write})
}

// Replay feeds the recorded events to h in order.
func (r *Recorder) Replay(h Handler) { ReplayEvents(r.Events, h) }

// ReplayEvents feeds a batch of events to h in order. It is the shared
// decode loop of Recorder.Replay and the parallel fan-out's consumers.
func ReplayEvents(events []Event, h Handler) {
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case EvEnter:
			h.EnterScope(e.Scope)
		case EvExit:
			h.ExitScope(e.Scope)
		case EvAccess:
			h.Access(e.Ref, e.Addr, e.Size, e.Write)
		}
	}
}

// Discard is a Handler that ignores everything. It is useful for measuring
// the raw cost of trace generation.
type Discard struct{}

// EnterScope implements Handler.
func (Discard) EnterScope(ScopeID) {}

// ExitScope implements Handler.
func (Discard) ExitScope(ScopeID) {}

// Access implements Handler.
func (Discard) Access(RefID, uint64, uint32, bool) {}
