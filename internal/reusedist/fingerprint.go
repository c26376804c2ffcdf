package reusedist

import (
	"encoding/binary"
	"hash/fnv"
	"sort"

	"reusetool/internal/histo"
)

// Fingerprint returns a stable FNV-1a hash over everything the engine
// reports: the final clock and, per reference in RefID order, the access
// and cold counts plus every pattern (sorted by key) with its arc count,
// per-threshold miss counts and full histogram contents.
//
// Two engines that collected bit-identical data produce the same
// fingerprint regardless of their internal representation, so the hot-path
// differential tests use it to pin optimized implementations against the
// reference engine and against goldens captured from earlier versions.
func (e *Engine) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w(e.clock)
	for _, rd := range e.refs {
		if rd == nil {
			continue
		}
		w(uint64(int64(rd.Ref)))
		w(uint64(int64(rd.Scope)))
		w(rd.Total)
		w(rd.Cold)
		for _, p := range rd.PatternsByKey() {
			k := p.Key
			w(uint64(int64(k.Source)))
			w(uint64(int64(k.Carrying)))
			// Pattern keys used to carry a calling-context hash, zero
			// unless context tracking was on; the zero word keeps every
			// pinned fingerprint valid.
			w(0)
			w(p.Count)
			for _, m := range p.MissAt {
				w(m)
			}
			w(p.Hist.Total())
			w(p.Hist.Cold())
			w(p.Hist.Max())
			p.Hist.Each(func(b histo.Bin) {
				w(b.Lo)
				w(b.Hi)
				w(b.Count)
			})
		}
	}
	return h.Sum64()
}

// less orders pattern keys by (Source, Carrying).
func (k PatternKey) less(o PatternKey) bool {
	if k.Source != o.Source {
		return k.Source < o.Source
	}
	return k.Carrying < o.Carrying
}

// PatternsByKey returns the reference's patterns in deterministic
// (Source, Carrying) key order — the canonical iteration order for
// fingerprints and persisted datasets.
func (r *RefData) PatternsByKey() []*Pattern {
	ps := make([]*Pattern, 0, len(r.Patterns))
	for _, p := range r.Patterns {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key.less(ps[j].Key) })
	return ps
}

// Fingerprint combines the fingerprints of all engines in granularity
// order.
func (c *Collector) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, e := range c.Engines {
		binary.LittleEndian.PutUint64(buf[:], e.Fingerprint())
		h.Write(buf[:])
	}
	return h.Sum64()
}
