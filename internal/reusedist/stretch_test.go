package reusedist

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"reusetool/internal/blocktable"
	"reusetool/internal/sampling"
	"reusetool/internal/trace"
)

// streamOp is one event of a generated stream: a scope entry or exit,
// an access run, or a single access (a run of one iteration and one
// reference, fed through Access).
type streamOp struct {
	enter, exit, single bool
	scope               trace.ScopeID
	refs                []trace.RunRef
	iters               uint64
}

// Address regions of runStream, in 64-byte blocks: a small region most
// runs share, a large one that gives a sampling engine blocks to admit,
// and the blocks just above 0 and just below 2^64, where runs wrap.
var streamRegions = []struct {
	base   uint64
	blocks int
}{
	{1 << 20, 32},
	{1 << 30, 4096},
	{0, 16},
	{1<<64 - 16*64, 16},
}

// streamDeltas are the deltas runStream draws from: zero, small positive
// and negative steps within a block, steps of a block and more, and the
// step that wraps half way round the address space.
var streamDeltas = []int64{0, 0, 8, 8, 8, 8, -8, -8, 4, -4, 1, 16, 24, 56, 64, -64, 200, -1 << 63}

// streamSizes are the access sizes runStream draws from; the last two
// always span blocks, and any size spans at an offset near a block's end.
var streamSizes = []uint32{8, 8, 8, 8, 8, 0, 1, 4, 16, 65, 130}

// runStream decodes in, six bytes an event, into a stream of scope
// events, access runs and bursts of single accesses. An event's bytes
// pick its kind, a count, a region and a run's iterations; the fifth's
// low bits say whether every reference of a run takes one step (then the
// sixth's) and makes aligned 8-byte accesses, and all six seed whatever
// else the event draws. Runs have up to 12 references, which
// may share blocks and repeat a reference ID, and up to 48 iterations,
// so some iterations touch more than frontK blocks.
// After each run come single accesses to the blocks of its last
// iteration, newest first, and the stream ends with a sweep of the small
// region, so whatever a run leaves in the block table, the front and the
// admission memo shows in later distances.
func runStream(in []byte) []streamOp {
	var ops []streamOp
	depth, accesses := 0, 0
	single := func(ref trace.RefID, addr uint64, size uint32) {
		ops = append(ops, streamOp{single: true, iters: 1, refs: []trace.RunRef{{Addr: addr, Ref: ref, Size: size}}})
		accesses++
	}
	for p := 0; p < len(in) && accesses < 1<<13; p += 6 {
		var b [8]byte
		copy(b[:6], in[p:])
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(b[:]))))
		switch b[0] % 8 {
		case 0:
			if depth < 8 {
				ops = append(ops, streamOp{enter: true, scope: trace.ScopeID(1 + int(b[1])%6)})
				depth++
			}
		case 1:
			if depth > 0 {
				ops = append(ops, streamOp{exit: true})
				depth--
			}
		case 7:
			reg := streamRegions[int(b[2])%len(streamRegions)]
			for i := 0; i < 1+int(b[1])%32; i++ {
				single(trace.RefID(rng.Intn(6)), reg.base+uint64(rng.Intn(reg.blocks*64)), streamSizes[rng.Intn(len(streamSizes))])
			}
		default:
			reg := streamRegions[int(b[2])%len(streamRegions)]
			refs := make([]trace.RunRef, 1+int(b[1])%12)
			iters := 1 + uint64(b[3])%48
			var addr uint64
			for i := range refs {
				if i == 0 || rng.Intn(3) > 0 {
					addr = reg.base + uint64(rng.Intn(reg.blocks))*64
				}
				refs[i] = trace.RunRef{
					Addr:  addr&^63 + uint64(rng.Intn(64)),
					Delta: uint64(streamDeltas[rng.Intn(len(streamDeltas))]),
					Ref:   trace.RefID(rng.Intn(6)),
					Size:  streamSizes[rng.Intn(len(streamSizes))],
					Write: rng.Intn(2) == 0,
				}
				if b[4]&1 == 0 { // one step for the whole run
					refs[i].Delta = uint64(streamDeltas[int(b[5])%len(streamDeltas)])
				}
				if b[4]&2 == 0 { // aligned 8-byte accesses, as loops make
					refs[i].Addr &^= 7
					refs[i].Size = 8
				}
			}
			ops = append(ops, streamOp{refs: refs, iters: iters})
			accesses += len(refs) * int(iters)
			for i := len(refs) - 1; i >= 0; i-- {
				r := refs[i]
				single(r.Ref, r.Addr+(iters-1)*r.Delta, r.Size)
			}
		}
	}
	reg := streamRegions[0]
	for i := 0; i < 2*reg.blocks; i++ {
		single(trace.RefID(i%6), reg.base+uint64(i*37%reg.blocks)*64, 8)
	}
	for ; depth > 0; depth-- {
		ops = append(ops, streamOp{exit: true})
	}
	return ops
}

// replay feeds ops to h, each run through AccessRun.
func replay(ops []streamOp, h trace.RunHandler) {
	for _, op := range ops {
		switch {
		case op.enter:
			h.EnterScope(op.scope)
		case op.exit:
			h.ExitScope(op.scope)
		case op.single:
			r := op.refs[0]
			h.Access(r.Ref, r.Addr, r.Size, r.Write)
		default:
			h.AccessRun(op.refs, op.iters)
		}
	}
}

// expanded takes each run one access at a time: the definition of
// AccessRun, for the handler it wraps.
type expanded struct{ trace.Handler }

func (x expanded) AccessRun(refs []trace.RunRef, iters uint64) {
	trace.ExpandRun(x.Handler, refs, iters)
}

// sameState reports the first difference between two engines' live
// state: clock, arc count, front, tree size, block table, rate,
// per-scope counters and admission memo.
func sameState(a, b *Engine) error {
	if ta, tb := tableEntries(a), tableEntries(b); !maps.Equal(ta, tb) {
		return fmt.Errorf("block table %v, want %v", ta, tb)
	}
	switch {
	case a.clock != b.clock:
		return fmt.Errorf("clock %d, want %d", a.clock, b.clock)
	case a.arcs != b.arcs:
		return fmt.Errorf("arcs %d, want %d", a.arcs, b.arcs)
	case a.front != b.front || a.frontN != b.frontN:
		return fmt.Errorf("front %v (%d), want %v (%d)", a.front, a.frontN, b.front, b.frontN)
	case a.tree.Len() != b.tree.Len():
		return fmt.Errorf("%d tree marks, want %d", a.tree.Len(), b.tree.Len())
	case a.scale != b.scale:
		return fmt.Errorf("rate %d, want %d", a.scale, b.scale)
	case !slices.Equal(a.scopeAccesses, b.scopeAccesses):
		return fmt.Errorf("scope accesses %v, want %v", a.scopeAccesses, b.scopeAccesses)
	case !slices.Equal(a.rejected, b.rejected):
		return fmt.Errorf("admission memo %v, want %v", a.rejected, b.rejected)
	}
	return nil
}

// tableEntries returns every entry of e's block table, by block.
func tableEntries(e *Engine) map[uint64]blocktable.Entry {
	m := make(map[uint64]blocktable.Entry)
	e.table.Evict(func(block uint64, ent blocktable.Entry) bool {
		m[block] = ent
		return false
	})
	return m
}

// FuzzRunMatchesExpansion: on generated streams of runs, single accesses
// and scope events, an engine taking each run through AccessRun agrees
// with one taking it one access at a time — in live state, fingerprint
// and every histogram bin — exact, at R=1, 8 and 64 and with an adaptive
// cap of 16 blocks; exact and R=1 engines also agree with the naive LRU
// stack.
func FuzzRunMatchesExpansion(f *testing.F) {
	f.Add([]byte{2, 3, 0, 15, 0, 2})                     // 4 refs stepping 8 bytes for 16 iterations: long stretches
	f.Add([]byte{2, 11, 0, 20, 0, 0, 3, 11, 0, 9, 0, 1}) // 12 refs that stay put: more than frontK blocks an iteration
	f.Add([]byte{0, 2, 0, 0, 0, 0, 4, 5, 2, 47, 0, 6})   // a scope, then a run stepping back past 0
	f.Add([]byte{5, 6, 3, 47, 0, 2, 7, 20, 1, 0, 0, 0})  // a run stepping up past 2^64, then singles
	f.Add([]byte{6, 7, 1, 30, 1, 0, 2, 9, 0, 33, 1, 4})  // per-reference steps and sizes, some spanning blocks
	thresholds := []uint64{2, frontK - 1, frontK, frontK + 1, 2 * frontK}
	f.Fuzz(func(t *testing.T, in []byte) {
		ops := runStream(in)
		for _, smp := range []sampling.Config{{}, {Rate: 1}, {Rate: 8}, {Rate: 64}, {MaxBlocks: 16}} {
			cfg := Config{BlockBits: 6, Thresholds: thresholds, Sampling: smp}
			run, exp := New(cfg), New(cfg)
			var naive *Naive
			var h trace.Handler = exp
			if smp.MaxBlocks == 0 && smp.Rate <= 1 {
				naive = NewNaive(6, thresholds)
				h = trace.Multi{exp, naive}
			}
			replay(ops, run)
			replay(ops, expanded{h})
			if err := sameState(run, exp); err != nil {
				t.Fatalf("sampling %v: %v", smp, err)
			}
			run.Finish()
			exp.Finish()
			if len(run.Refs()) != len(exp.Refs()) {
				t.Fatalf("sampling %v: %d references, expansion %d", smp, len(run.Refs()), len(exp.Refs()))
			}
			for _, rd := range run.Refs() {
				if err := sameRefData(rd, exp.Ref(rd.Ref)); err != nil {
					t.Fatalf("sampling %v: %v", smp, err)
				}
			}
			if a, b := run.Fingerprint(), exp.Fingerprint(); a != b {
				t.Fatalf("sampling %v: fingerprint %#x, expansion %#x", smp, a, b)
			}
			if naive != nil {
				if err := sameAsNaive(run, naive); err != nil {
					t.Fatalf("sampling %v: %v", smp, err)
				}
			}
		}
	})
}
