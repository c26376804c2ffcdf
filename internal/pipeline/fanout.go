// Package pipeline parallelizes the instrumentation event stream across
// trace consumers.
//
// The paper's event handler drives one reuse-distance engine per block
// granularity plus the execution-driven cache simulator off a single
// access stream. That fan-out is embarrassingly parallel across
// consumers: each engine only needs to see the events in order, not to
// see them at the same moment as its siblings. Fanout exploits this: the
// producer (the IR interpreter) appends events to a fixed-size batch in
// trace's encoding, and every full batch is sent on one buffered
// channel per consumer; each consumer drains its channel on a dedicated
// goroutine and replays the batches into its trace.Handler with a
// trace.Decoder.
//
// Because every consumer receives the exact ordered stream, the results
// are bit-identical to the sequential trace.Multi path — the consumers
// merely run concurrently with the producer and with each other. The
// channels provide backpressure: when the slowest consumer lags by
// ringSize batches, the producer blocks until it catches up, so memory
// stays bounded at O(consumers × ringSize × batchSize) events.
//
// An access run (trace.RunHandler) travels inside a batch encoded by
// trace.AppendRun, and each consumer's decoder hands it on as a run or
// expands it. A batch expands to at most batchWork × batchSize accesses
// and scope events, so a consumer lags the producer by a bounded amount
// of work as well as of memory.
package pipeline

import (
	"fmt"
	"sync/atomic"

	"reusetool/internal/trace"
)

// Sizing: batches large enough to amortize the channel handoff down to
// noise (one send per ~4k events), channels deep enough to absorb
// consumer jitter without ballooning memory.
const (
	batchSize = 4096
	ringSize  = 8
)

// batchWork bounds, in batch sizes, the accesses and scope events one
// batch expands to. An encoded run of 4096 accesses takes as few as
// three events, so without the bound a batch of runs could stand for
// millions of accesses.
const batchWork = 16

// batch is one published slice of events plus the number of consumers
// that still have to release it; the last one recycles it.
type batch struct {
	ev   []trace.Event
	refs atomic.Int32
}

// consumer owns one handler, its channel of batches, and its draining
// goroutine.
type consumer struct {
	h    trace.Handler
	dec  trace.Decoder
	in   chan *batch
	done chan struct{}
	err  error
}

// run drains the channel until it is closed, replaying batches into the
// handler. A panicking handler poisons only this consumer: the error is
// recorded, and the remaining batches are drained (and released)
// without replay so the producer and sibling consumers never block on a
// dead consumer.
func (c *consumer) run(f *Fanout) {
	defer close(c.done)
	for b := range c.in {
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
	c.dec.Replay(events, c.h)
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
	// batchLen is the number of events per published batch.
	batchLen int
	cons     []*consumer
	cur      []trace.Event
	// work counts the accesses and scope events cur expands to;
	// maxWork bounds it.
	work, maxWork uint64
	free          chan *batch
	closed        bool
}

// NewFanout starts one draining goroutine per handler.
func NewFanout(handlers ...trace.Handler) *Fanout {
	return newFanout(batchSize, ringSize, handlers...)
}

// newFanout is NewFanout with batches of batchLen events and channels
// of ringLen batches; the package's tests shrink both.
func newFanout(batchLen, ringLen int, handlers ...trace.Handler) *Fanout {
	f := &Fanout{
		batchLen: batchLen,
		maxWork:  batchWork * uint64(batchLen),
		// Capacity for every in-flight batch plus slack so recycling
		// never blocks a consumer.
		free: make(chan *batch, ringLen*len(handlers)+2*len(handlers)+2),
	}
	for _, h := range handlers {
		c := &consumer{h: h, in: make(chan *batch, ringLen), done: make(chan struct{})}
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
		return make([]trace.Event, 0, f.batchLen)
	}
}

func (f *Fanout) recycle(b *batch) {
	select {
	case f.free <- b:
	default:
	}
}

// publish sends the current batch to every consumer in order.
func (f *Fanout) publish() {
	if len(f.cur) == 0 {
		return
	}
	b := &batch{ev: f.cur}
	b.refs.Store(int32(len(f.cons)))
	for _, c := range f.cons {
		c.in <- b
	}
	f.cur = f.newBatchBuf()
	f.work = 0
}

func (f *Fanout) emit(e trace.Event) {
	f.cur = append(f.cur, e)
	f.work++
	if len(f.cur) >= f.batchLen || f.work >= f.maxWork {
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
	if iters < 3 || n == 0 || width > f.batchLen {
		trace.ExpandRun(f, refs, iters)
		return
	}
	for k := uint64(0); k < iters; {
		if len(f.cur)+width > f.batchLen || f.work+n > f.maxWork {
			f.publish()
		}
		c := min(iters-k, (f.maxWork-f.work)/n)
		f.cur = trace.AppendRun(f.cur, refs, k, c)
		f.work += c * n
		k += c
	}
	if len(f.cur) >= f.batchLen || f.work >= f.maxWork {
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
		close(c.in)
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
