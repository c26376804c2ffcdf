// Package pipeline parallelizes the instrumentation event stream across
// trace consumers.
//
// The paper's event handler drives one reuse-distance engine per block
// granularity plus the execution-driven cache simulator off a single
// access stream. That fan-out is embarrassingly parallel across
// consumers: each engine only needs to see the events in order, not to
// see them at the same moment as its siblings. Fanout exploits this: the
// producer (the IR interpreter) appends events to a fixed-size batch,
// and every full batch is published to one bounded SPSC ring per
// consumer; each consumer drains its ring on a dedicated goroutine and
// replays the batches into its trace.Handler.
//
// Because every consumer receives the exact ordered stream, the results
// are bit-identical to the sequential trace.Multi path — the consumers
// merely run concurrently with the producer and with each other. The
// bounded rings provide backpressure: when the slowest consumer lags by
// RingSize batches, the producer blocks until it catches up, so memory
// stays bounded at O(consumers × RingSize × BatchSize) events.
//
// An access run (trace.RunHandler) travels inside a batch in encoded
// form, as one header event and two events per reference, and each
// consumer expands it or hands it on as a run. A batch expands to at
// most batchWork × BatchSize accesses and scope events, so a consumer
// lags the producer by a bounded amount of work as well as of memory.
package pipeline

import (
	"fmt"
	"sync/atomic"

	"reusetool/internal/trace"
)

// Default sizing: batches large enough to amortize ring synchronization
// down to noise (a lock operation per ~4k events), rings deep enough to
// absorb consumer jitter without ballooning memory.
const (
	DefaultBatchSize = 4096
	DefaultRingSize  = 8
)

// batchWork bounds, in BatchSizes, the accesses and scope events one
// batch expands to. An encoded run of 4096 accesses takes as few as
// three events, so without the bound a batch of runs could stand for
// millions of accesses.
const batchWork = 16

// evRun is the kind of an encoded run's header event. The header's Addr
// holds the run's iteration count and its Size the number of references
// n; the 2n events after it hold, per reference, its Addr, Ref, Size and
// Write, then its Delta in Addr.
const evRun trace.EventKind = 255

// Config sizes a Fanout. The zero value selects the defaults.
type Config struct {
	// BatchSize is the number of events per published batch.
	BatchSize int
	// RingSize is the per-consumer ring capacity, in batches.
	RingSize int
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	return c
}

// batch is one published slice of events plus the number of consumers
// that still have to release it; the last one recycles it.
type batch struct {
	ev   []trace.Event
	refs atomic.Int32
}

// consumer owns one handler, its ring, and its draining goroutine.
type consumer struct {
	h    trace.Handler
	rh   trace.RunHandler // h when it takes runs, else nil
	runs []trace.RunRef   // the decoded references of the current run
	ring *ring
	done chan struct{}
	err  error
}

// run drains the ring until close, replaying batches into the handler.
// A panicking handler poisons only this consumer: the error is recorded,
// and the remaining batches are drained (and released) without replay so
// the producer and sibling consumers never block on a dead ring.
func (c *consumer) run(f *Fanout) {
	defer close(c.done)
	for {
		b, ok := c.ring.pop()
		if !ok {
			return
		}
		if c.err == nil {
			c.replay(b.ev)
		}
		if b.refs.Add(-1) == 0 {
			f.recycle(b)
		}
	}
}

func (c *consumer) replay(events []trace.Event) {
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("pipeline: consumer %T: %v", c.h, r)
		}
	}()
	for i := 0; i < len(events); i++ {
		e := &events[i]
		switch e.Kind {
		case trace.EvEnter:
			c.h.EnterScope(e.Scope)
		case trace.EvExit:
			c.h.ExitScope(e.Scope)
		case trace.EvAccess:
			c.h.Access(e.Ref, e.Addr, e.Size, e.Write)
		case evRun:
			i = c.replayRun(events, i)
		}
	}
}

// replayRun decodes the run whose header is events[i] and feeds it to
// the handler, as a run when the handler takes runs and one access at
// a time when it does not. It returns the index of the run's last event.
//
//reuse:hotpath
func (c *consumer) replayRun(events []trace.Event, i int) int {
	hd := &events[i]
	refs := c.runs[:0]
	for j := i + 1; j < i+1+2*int(hd.Size); j += 2 {
		r := &events[j]
		refs = append(refs, trace.RunRef{Addr: r.Addr, Delta: events[j+1].Addr, Ref: r.Ref, Size: r.Size, Write: r.Write})
	}
	c.runs = refs
	if c.rh != nil {
		c.rh.AccessRun(refs, hd.Addr)
	} else {
		trace.ExpandRun(c.h, refs, hd.Addr)
	}
	return i + 2*len(refs)
}

// Fanout distributes one event stream to several handlers, each on its
// own goroutine. It implements trace.RunHandler for the producer side;
// events are only visible to consumers at batch boundaries. Call Close
// exactly once after the producer finishes to flush the final partial
// batch, join every consumer, and collect the first error.
//
// Fanout is single-producer: the Handler methods must be called from one
// goroutine, as the interpreter does.
type Fanout struct {
	cfg  Config
	cons []*consumer
	cur  []trace.Event
	// work counts the accesses and scope events cur expands to;
	// maxWork bounds it.
	work, maxWork uint64
	free          chan *batch
	closed        bool
}

// NewFanout starts one draining goroutine per handler.
func NewFanout(cfg Config, handlers ...trace.Handler) *Fanout {
	cfg = cfg.withDefaults()
	f := &Fanout{
		cfg:     cfg,
		maxWork: batchWork * uint64(cfg.BatchSize),
		// Capacity for every in-flight batch plus slack so recycling
		// never blocks a consumer.
		free: make(chan *batch, cfg.RingSize*len(handlers)+2*len(handlers)+2),
	}
	for _, h := range handlers {
		c := &consumer{h: h, ring: newRing(cfg.RingSize), done: make(chan struct{})}
		c.rh, _ = h.(trace.RunHandler)
		f.cons = append(f.cons, c)
		go c.run(f)
	}
	f.cur = f.newBatchBuf()
	return f
}

func (f *Fanout) newBatchBuf() []trace.Event {
	select {
	case b := <-f.free:
		return b.ev[:0]
	default:
		return make([]trace.Event, 0, f.cfg.BatchSize)
	}
}

func (f *Fanout) recycle(b *batch) {
	select {
	case f.free <- b:
	default:
	}
}

// publish hands the current batch to every consumer ring in order.
func (f *Fanout) publish() {
	if len(f.cur) == 0 {
		return
	}
	b := &batch{ev: f.cur}
	b.refs.Store(int32(len(f.cons)))
	for _, c := range f.cons {
		c.ring.push(b)
	}
	f.cur = f.newBatchBuf()
	f.work = 0
}

func (f *Fanout) emit(e trace.Event) {
	f.cur = append(f.cur, e)
	f.work++
	if len(f.cur) >= f.cfg.BatchSize || f.work >= f.maxWork {
		f.publish()
	}
}

// EnterScope implements trace.Handler.
func (f *Fanout) EnterScope(s trace.ScopeID) {
	f.emit(trace.Event{Kind: trace.EvEnter, Scope: s})
}

// ExitScope implements trace.Handler.
func (f *Fanout) ExitScope(s trace.ScopeID) {
	f.emit(trace.Event{Kind: trace.EvExit, Scope: s})
}

// Access implements trace.Handler.
func (f *Fanout) Access(ref trace.RefID, addr uint64, size uint32, write bool) {
	f.emit(trace.Event{Kind: trace.EvAccess, Ref: ref, Addr: addr, Size: size, Write: write})
}

// AccessRun implements trace.RunHandler. A run of three or more
// iterations travels encoded, split across batches where it would break
// a batch's event or work bound; a shorter run, or one whose encoding
// would not fit in one batch, travels one access at a time, which is no
// larger.
//
//reuse:hotpath
func (f *Fanout) AccessRun(refs []trace.RunRef, iters uint64) {
	n, width := uint64(len(refs)), 1+2*len(refs)
	if iters < 3 || n == 0 || width > f.cfg.BatchSize {
		trace.ExpandRun(f, refs, iters)
		return
	}
	for k := uint64(0); k < iters; {
		if len(f.cur)+width > f.cfg.BatchSize || f.work+n > f.maxWork {
			f.publish()
		}
		c := min(iters-k, (f.maxWork-f.work)/n)
		f.cur = append(f.cur, trace.Event{Kind: evRun, Addr: c, Size: uint32(n)})
		for i := range refs {
			r := &refs[i]
			f.cur = append(f.cur,
				trace.Event{Kind: evRun, Addr: r.Addr + k*r.Delta, Ref: r.Ref, Size: r.Size, Write: r.Write},
				trace.Event{Kind: evRun, Addr: r.Delta})
		}
		f.work += c * n
		k += c
	}
	if len(f.cur) >= f.cfg.BatchSize || f.work >= f.maxWork {
		f.publish()
	}
}

// Close flushes the final partial batch, signals end-of-stream, joins
// every consumer goroutine, and returns the first consumer error (in
// consumer order). After Close the Fanout must not receive events.
// Once Close returns, every handler has processed the complete stream,
// so reading their results needs no further synchronization.
func (f *Fanout) Close() error {
	if f.closed {
		return fmt.Errorf("pipeline: Fanout closed twice")
	}
	f.closed = true
	f.publish()
	for _, c := range f.cons {
		c.ring.close()
	}
	var first error
	for _, c := range f.cons {
		<-c.done
		if first == nil && c.err != nil {
			first = c.err
		}
	}
	return first
}
