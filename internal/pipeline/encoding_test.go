package pipeline

import (
	"math/rand"
	"slices"
	"testing"

	"reusetool/internal/trace"
)

// genOp is one event of a generated stream: a scope entry or exit, a
// single access (one reference, one iteration, run false), or an access
// run.
type genOp struct {
	kind  trace.EventKind
	scope trace.ScopeID
	refs  []trace.RunRef
	iters uint64
	run   bool
}

// genStream decodes fuzz bytes into a properly nested stream of scope
// events, single accesses, and runs of 0–40 iterations over 0–12
// references. Addresses start low, high and near 2^64, and deltas are
// zero, positive, negative or wrapping.
func genStream(data []byte) []genOp {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	bases := [...]uint64{0, 1 << 20, 1 << 40, ^uint64(0) - 255}
	deltas := [...]uint64{0, 8, ^uint64(7), 4096, ^uint64(4095), 1 << 63, 24}
	ref := func() trace.RunRef {
		return trace.RunRef{
			Addr:  bases[next()%4] + 8*uint64(next()),
			Delta: deltas[next()%7],
			Ref:   trace.RefID(next() % 16),
			Size:  [...]uint32{1, 4, 8, 16}[next()%4],
			Write: next()%2 == 1,
		}
	}
	var ops []genOp
	var open []trace.ScopeID
	for len(data) > 0 && len(ops) < 256 {
		switch next() % 4 {
		case 0:
			s := trace.ScopeID(next() % 8)
			open = append(open, s)
			ops = append(ops, genOp{kind: trace.EvEnter, scope: s})
		case 1:
			if n := len(open); n > 0 {
				ops = append(ops, genOp{kind: trace.EvExit, scope: open[n-1]})
				open = open[:n-1]
			}
		case 2:
			ops = append(ops, genOp{kind: trace.EvAccess, refs: []trace.RunRef{ref()}, iters: 1})
		case 3:
			op := genOp{kind: trace.EvAccess, iters: uint64(next() % 41), run: true}
			for n := next() % 13; n > 0; n-- {
				op.refs = append(op.refs, ref())
			}
			ops = append(ops, op)
		}
	}
	for n := len(open); n > 0; n-- {
		ops = append(ops, genOp{kind: trace.EvExit, scope: open[n-1]})
	}
	return ops
}

// play sends ops to h.
func play(ops []genOp, h trace.RunHandler) {
	for _, op := range ops {
		switch {
		case op.kind == trace.EvEnter:
			h.EnterScope(op.scope)
		case op.kind == trace.EvExit:
			h.ExitScope(op.scope)
		case op.run:
			h.AccessRun(op.refs, op.iters)
		default:
			r := op.refs[0]
			h.Access(r.Ref, r.Addr, r.Size, r.Write)
		}
	}
}

// expand is the stream ops stand for, each run written out by its
// definition in trace.RunHandler.
func expand(ops []genOp) []trace.Event {
	var out []trace.Event
	for _, op := range ops {
		if op.kind != trace.EvAccess {
			out = append(out, trace.Event{Kind: op.kind, Scope: op.scope})
			continue
		}
		for k := uint64(0); k < op.iters; k++ {
			for _, r := range op.refs {
				out = append(out, trace.Event{Kind: trace.EvAccess, Ref: r.Ref, Addr: r.Addr + k*r.Delta, Size: r.Size, Write: r.Write})
			}
		}
	}
	return out
}

// FuzzRunEncoding feeds one generated stream to the three paths that
// carry runs: a trace.Recorder replayed, a fan-out with batches of 3 to
// 32 events (so runs split at the work bound and batches close at the
// event bound), and trace.Multi. Behind each path sit a handler that
// takes runs and one that does not, both recorders. Every recording
// must expand to the stream itself; the run handler must receive
// runs, and the other none.
func FuzzRunEncoding(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		data := make([]byte, 64+8*seed)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	// Batches of 32 events, so a work bound of 512 accesses: a run of
	// 40 iterations over 12 references (25 events, 480 accesses) leaves
	// room for 10 iterations of the next run over 3.
	run := func(iters, n byte) []byte {
		b := []byte{3, iters, n}
		for i := byte(0); i < n; i++ {
			b = append(b, i, 7*i, i, i, i, i)
		}
		return b
	}
	f.Add(slices.Concat([]byte{29, 0}, run(40, 12), run(40, 3)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		batch, ring := 3+int(data[0]%30), 1+int(data[1]%2)
		ops := genStream(data[2:])
		want := expand(ops)
		var runs, encodable int
		for _, op := range ops {
			if op.run {
				runs++
				if n := len(op.refs); op.iters >= 3 && n > 0 && 1+2*n <= batch {
					encodable++
				}
			}
		}

		behind := func() ([2]*trace.Recorder, []trace.Handler) {
			r := [2]*trace.Recorder{{}, {}}
			return r, []trace.Handler{r[0], struct{ trace.Handler }{r[1]}}
		}
		var rec trace.Recorder
		play(ops, &rec)
		viaRecorder, hs := behind()
		for _, h := range hs {
			rec.Replay(h)
		}
		viaFanout, hs := behind()
		fan := newFanout(batch, ring, hs...)
		play(ops, fan)
		if err := fan.Close(); err != nil {
			t.Fatal(err)
		}
		viaMulti, hs := behind()
		play(ops, trace.Multi(hs))

		for _, p := range []struct {
			name string
			recs [2]*trace.Recorder
		}{{"recorder", viaRecorder}, {"fan-out", viaFanout}, {"multi", viaMulti}} {
			for i, r := range p.recs {
				if got := r.Expanded(); !slices.Equal(got, want) {
					t.Fatalf("%s, handler %d: %d events, want the %d of the stream", p.name, i, len(got), len(want))
				}
			}
			got := runsIn(p.recs[0])
			if p.name == "fan-out" && (got < encodable || encodable == 0 && got != 0) {
				t.Errorf("fan-out: the run handler got %d runs from %d encodable ones", got, encodable)
			}
			if p.name != "fan-out" && got != runs {
				t.Errorf("%s: the run handler got %d runs, want %d", p.name, got, runs)
			}
			if n := runsIn(p.recs[1]); n != 0 {
				t.Errorf("%s: the handler without runs got %d runs", p.name, n)
			}
		}
	})
}
