// Package trace defines the instrumentation event API that connects
// workload execution to the analysis engines.
//
// The paper instruments application binaries so that every memory reference
// invokes an event handler, and every routine/loop entry and exit is
// reported. This package is the Go equivalent of that contract: anything
// that can produce a stream of EnterScope/ExitScope/Access events (here, the
// IR interpreter in internal/interp) can feed anything that consumes one
// (the reuse-distance engine, the cache simulator, recorders, ...). A
// producer that knows a loop's addresses in closed form may hand a
// RunHandler the loop's accesses as one access run; every other handler
// gets them one at a time.
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

// RunRef is one reference of an access run: at iteration k it accesses
// Size bytes at Addr + k·Delta, in wrapping uint64 arithmetic.
type RunRef struct {
	Addr, Delta uint64
	Ref         RefID
	Size        uint32
	Write       bool
}

// RunHandler is a Handler that also takes access runs: the accesses of
// a loop instance whose every address advances by a constant step.
//
// AccessRun(refs, iters) is defined as exactly the loop it replaces:
// for each iteration k from 0 to iters−1, and for each ref r in order,
// Access(r.Ref, r.Addr+k·r.Delta, r.Size, r.Write). AccessRun must not
// retain refs, which its caller reuses.
type RunHandler interface {
	Handler
	AccessRun(refs []RunRef, iters uint64)
}

// ExpandRun feeds a run to h one access at a time: the definition of
// RunHandler.AccessRun, for handlers that take no runs.
//
//reuse:hotpath
func ExpandRun(h Handler, refs []RunRef, iters uint64) {
	for k := uint64(0); k < iters; k++ {
		for i := range refs {
			r := &refs[i]
			h.Access(r.Ref, r.Addr+k*r.Delta, r.Size, r.Write)
		}
	}
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

// AccessRun implements RunHandler: each handler takes the whole run,
// as a run when it takes runs and one access at a time when it does not.
//
//reuse:hotpath
func (m Multi) AccessRun(refs []RunRef, iters uint64) {
	for _, h := range m {
		if rh, ok := h.(RunHandler); ok {
			rh.AccessRun(refs, iters)
		} else {
			ExpandRun(h, refs, iters)
		}
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

// Recorded event kinds. A decoded or expanded stream holds only these;
// an encoded access run uses a fourth kind (see AppendRun).
const (
	EvEnter EventKind = iota
	EvExit
	EvAccess
)

// evRun is the kind of every event of an encoded access run.
const evRun EventKind = 255

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

// AppendRun appends to events the encoding of iterations from to
// from+iters−1 of the access run refs, and returns the extended slice.
// The encoding is a header event, whose Addr holds iters and whose Size
// holds the number of references n, then two events per reference: the
// first with its Addr at iteration from, its Ref, Size and Write, the
// second with its Delta in Addr. A run of 24 iterations over 7
// references is 15 events instead of 168. Decoder reads it back.
//
//reuse:hotpath
func AppendRun(events []Event, refs []RunRef, from, iters uint64) []Event {
	events = append(events, Event{Kind: evRun, Addr: iters, Size: uint32(len(refs))})
	for i := range refs {
		r := &refs[i]
		events = append(events,
			Event{Kind: evRun, Addr: r.Addr + from*r.Delta, Ref: r.Ref, Size: r.Size, Write: r.Write},
			Event{Kind: evRun, Addr: r.Delta})
	}
	return events
}

// Decoder replays encoded event streams: a Recorder's, or a batch of a
// fan-out's. Its zero value is ready to use. It keeps the references of
// the last run it decoded as scratch, so a Decoder that replays many
// streams allocates only for a run wider than any before it. One
// Decoder serves one goroutine; a stream is only read, so several
// Decoders may replay it at once.
type Decoder struct {
	refs []RunRef
}

// Replay feeds events to h in order. A run goes to h whole when h is a
// RunHandler, and one access at a time when it is not.
func (d *Decoder) Replay(events []Event, h Handler) {
	rh, _ := h.(RunHandler)
	for i := 0; i < len(events); i++ {
		e := &events[i]
		switch e.Kind {
		case EvEnter:
			h.EnterScope(e.Scope)
		case EvExit:
			h.ExitScope(e.Scope)
		case EvAccess:
			h.Access(e.Ref, e.Addr, e.Size, e.Write)
		case evRun:
			refs := d.refs[:0]
			for j := i + 1; j < i+1+2*int(e.Size); j += 2 {
				r := &events[j]
				refs = append(refs, RunRef{Addr: r.Addr, Delta: events[j+1].Addr, Ref: r.Ref, Size: r.Size, Write: r.Write})
			}
			d.refs = refs
			if rh != nil {
				rh.AccessRun(refs, e.Addr)
			} else {
				ExpandRun(h, refs, e.Addr)
			}
			i += 2 * len(refs)
		}
	}
}

// Recorder records an event stream in memory, each access run kept as
// one encoded run, so that the stream can be replayed against several
// handlers with different configurations. It is intended for tests,
// benchmarks and small traces. Read a recording through Replay or
// Expanded: a run is one entry of the recording but many accesses.
type Recorder struct {
	events []Event
}

// EnterScope implements Handler.
func (r *Recorder) EnterScope(s ScopeID) {
	r.events = append(r.events, Event{Kind: EvEnter, Scope: s})
}

// ExitScope implements Handler.
func (r *Recorder) ExitScope(s ScopeID) {
	r.events = append(r.events, Event{Kind: EvExit, Scope: s})
}

// Access implements Handler.
func (r *Recorder) Access(ref RefID, addr uint64, size uint32, write bool) {
	r.events = append(r.events, Event{Kind: EvAccess, Ref: ref, Addr: addr, Size: size, Write: write})
}

// AccessRun implements RunHandler.
func (r *Recorder) AccessRun(refs []RunRef, iters uint64) {
	r.events = AppendRun(r.events, refs, 0, iters)
}

// Replay feeds the recorded stream to h in order, each run whole when h
// takes runs. Several goroutines may replay one Recorder at once.
func (r *Recorder) Replay(h Handler) {
	var d Decoder
	d.Replay(r.events, h)
}

// Expanded returns the recorded stream as a handler without runs sees
// it: every run expanded to its accesses, so the events are of kinds
// EvEnter, EvExit and EvAccess only.
func (r *Recorder) Expanded() []Event {
	var x Recorder
	r.Replay(struct{ Handler }{&x})
	return x.events
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

// AccessRun implements RunHandler.
func (Discard) AccessRun([]RunRef, uint64) {}
