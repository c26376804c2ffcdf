// Package persist saves and restores collected reuse-distance data.
//
// This enables the paper's intended workflow: the expensive instrumented
// run happens once, producing architecture-independent reuse-distance
// histograms; miss predictions for any number of cache configurations
// (sharing the collection granularities) are then computed offline from
// the saved dataset.
package persist

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"reusetool/internal/interp"
	"reusetool/internal/reusedist"
	"reusetool/internal/trace"
)

// FormatVersion identifies the on-disk encoding. Version 2 replaces the
// map-valued fields of version 1 with sorted slices, making the emitted
// bytes a pure function of the collected data (gob serializes maps in
// random iteration order); version-1 streams still load.
const FormatVersion = 2

// Dataset is the persisted form of a collector's measurements.
type Dataset struct {
	Version int
	// Program names the analyzed workload.
	Program string
	// Grans records the collection granularities (block sizes and the
	// exact-miss thresholds that were counted online).
	Grans []reusedist.Granularity
	// Refs holds, per granularity, the per-reference data.
	Refs [][]*reusedist.RefData
	// Clocks holds each granularity engine's final logical clock (its
	// block-granularity access count).
	Clocks []uint64
	// Trips holds the dynamic loop trip statistics (needed by the static
	// fragmentation analysis when re-analyzing offline). May be nil.
	Trips map[trace.ScopeID]interp.TripStat
}

// Snapshot captures a collector's state into a Dataset. trips may be nil;
// pass interp.Result.Trips to enable offline fragmentation analysis.
func Snapshot(col *reusedist.Collector, program string, trips map[trace.ScopeID]interp.TripStat) *Dataset {
	d := &Dataset{Version: FormatVersion, Program: program, Grans: col.Grans, Trips: trips}
	for _, eng := range col.Engines {
		d.Refs = append(d.Refs, eng.Refs())
		d.Clocks = append(d.Clocks, eng.Clock())
	}
	return d
}

// TripsFunc adapts the stored trip statistics for the static analysis,
// falling back to def for loops without data.
func (d *Dataset) TripsFunc(def float64) func(trace.ScopeID) float64 {
	return func(s trace.ScopeID) float64 {
		if t, ok := d.Trips[s]; ok && t.Execs > 0 {
			return t.Avg()
		}
		return def
	}
}

// Collector rebuilds a read-only collector from the dataset. The result
// serves metrics.Build and all query paths but must not receive events.
func (d *Dataset) Collector() *reusedist.Collector {
	col := &reusedist.Collector{Grans: d.Grans}
	for i, g := range d.Grans {
		col.Engines = append(col.Engines, reusedist.Restore(reusedist.Config{
			BlockBits:  g.BlockBits,
			Thresholds: g.Thresholds,
		}, d.Refs[i], d.Clocks[i]))
	}
	return col
}

// refWire is the version-2 serialized form of one reference: patterns as a
// slice in (Source, Carrying) key order instead of a map, so the byte
// stream is deterministic. Streams written while pattern keys still had a
// calling-context field load too: gob skips the retired field.
type refWire struct {
	Ref   trace.RefID
	Scope trace.ScopeID
	Pats  []*reusedist.Pattern
	Total uint64
	Cold  uint64
}

// datasetWire is the on-disk representation. RefsV2/TripIDs/TripVals carry
// the deterministic version-2 encoding; Refs and Trips are the version-1
// map-based fields, populated only when decoding old streams.
type datasetWire struct {
	Version  int
	Program  string
	Grans    []reusedist.Granularity
	RefsV2   [][]refWire
	Clocks   []uint64
	TripIDs  []trace.ScopeID
	TripVals []interp.TripStat

	Refs  [][]*reusedist.RefData            // legacy (version 1) only
	Trips map[trace.ScopeID]interp.TripStat // legacy (version 1) only
}

// Save writes the dataset to w in gob format. The emitted bytes are
// deterministic: saving the same collected data twice produces identical
// files, so dataset artifacts can be content-addressed and diffed.
func Save(w io.Writer, d *Dataset) error {
	wire := datasetWire{
		Version: d.Version,
		Program: d.Program,
		Grans:   d.Grans,
		Clocks:  d.Clocks,
	}
	for _, refs := range d.Refs {
		rw := make([]refWire, 0, len(refs))
		for _, rd := range refs {
			if rd == nil {
				continue
			}
			rw = append(rw, refWire{
				Ref:   rd.Ref,
				Scope: rd.Scope,
				Pats:  rd.PatternsByKey(),
				Total: rd.Total,
				Cold:  rd.Cold,
			})
		}
		wire.RefsV2 = append(wire.RefsV2, rw)
	}
	if len(d.Trips) > 0 {
		wire.TripIDs = make([]trace.ScopeID, 0, len(d.Trips))
		for id := range d.Trips {
			wire.TripIDs = append(wire.TripIDs, id)
		}
		sort.Slice(wire.TripIDs, func(i, j int) bool { return wire.TripIDs[i] < wire.TripIDs[j] })
		wire.TripVals = make([]interp.TripStat, 0, len(wire.TripIDs))
		for _, id := range wire.TripIDs {
			wire.TripVals = append(wire.TripVals, d.Trips[id])
		}
	}
	if err := gob.NewEncoder(w).Encode(&wire); err != nil {
		return fmt.Errorf("persist: encode: %w", err)
	}
	return nil
}

// SaveFile writes the dataset to path atomically, through WriteFile.
func SaveFile(path string, d *Dataset) error {
	return WriteFile(path, func(w io.Writer) error { return Save(w, d) })
}

// WriteFile writes path atomically: write fills a temporary file in the
// same directory, which is renamed into place only once complete.
// Concurrent readers therefore always observe either the previous
// complete file or the new one — never a torn stream — and concurrent
// writers of the same path each land a complete file, with one of them
// winning. SaveFile and the daemon's on-disk result cache both write
// through it.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".persist-*.tmp")
	if err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	// Clean the temp file up on any failure path; harmless after rename.
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: %w", err)
	}
	return nil
}

// LoadFile reads an artifact written by SaveFile (or any complete Save
// stream on disk).
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// maxRefs bounds the reference IDs an artifact may carry: reusedist.Restore
// sizes a dense table by the largest one, so the bound caps what a small
// artifact can make its reader allocate. No program that fits in a 16 MiB
// request has that many references; each spends at least four bytes of
// source, as in a[i].
const maxRefs = 1 << 22

// Load reads a dataset written by Save, accepting both the current
// deterministic format and version-1 streams. It is where the shape of an
// untrusted artifact is checked: a stream whose granularities, reference
// sets and clocks disagree, or that names a block size, reference ID,
// pattern or histogram no engine could have produced, is refused before
// anything indexes it.
func Load(r io.Reader) (*Dataset, error) {
	var w datasetWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("persist: decode: %w", err)
	}
	if w.Version != 1 && w.Version != FormatVersion {
		return nil, fmt.Errorf("persist: unsupported format version %d (want <= %d)", w.Version, FormatVersion)
	}
	if len(w.TripIDs) != len(w.TripVals) {
		return nil, fmt.Errorf("persist: corrupt stream: %d trip ids, %d trip stats", len(w.TripIDs), len(w.TripVals))
	}
	d := &Dataset{
		Version: w.Version,
		Program: w.Program,
		Grans:   w.Grans,
		Clocks:  w.Clocks,
		Refs:    w.Refs,
		Trips:   w.Trips,
	}
	for _, rw := range w.RefsV2 {
		refs := make([]*reusedist.RefData, 0, len(rw))
		for _, r := range rw {
			rd := &reusedist.RefData{
				Ref:      r.Ref,
				Scope:    r.Scope,
				Patterns: make(map[reusedist.PatternKey]*reusedist.Pattern, len(r.Pats)),
				Total:    r.Total,
				Cold:     r.Cold,
			}
			for _, p := range r.Pats {
				if p == nil {
					return nil, fmt.Errorf("persist: corrupt stream: reference %d has a nil pattern", r.Ref)
				}
				if rd.Patterns[p.Key] != nil {
					// Keeping one would drop the other's counts, which Total
					// still includes.
					return nil, fmt.Errorf("persist: corrupt stream: reference %d lists pattern (source %d, carrying %d) twice",
						r.Ref, p.Key.Source, p.Key.Carrying)
				}
				rd.Patterns[p.Key] = p
			}
			refs = append(refs, rd)
		}
		d.Refs = append(d.Refs, refs)
	}
	if len(w.TripIDs) > 0 {
		d.Trips = make(map[trace.ScopeID]interp.TripStat, len(w.TripIDs))
		for i, id := range w.TripIDs {
			d.Trips[id] = w.TripVals[i]
		}
	}
	if err := d.validate(); err != nil {
		return nil, fmt.Errorf("persist: corrupt stream: %w", err)
	}
	return d, nil
}

// validate checks that every index a reader derives from the dataset is in
// range: one reference set and one clock per granularity, block sizes an
// engine accepts, level names with a threshold each, and per granularity
// unique reference IDs in [0, maxRefs) whose patterns each carry a
// histogram and one miss count per threshold.
func (d *Dataset) validate() error {
	if len(d.Refs) != len(d.Grans) || len(d.Clocks) != len(d.Grans) {
		return fmt.Errorf("%d granularities, %d reference sets, %d clocks", len(d.Grans), len(d.Refs), len(d.Clocks))
	}
	for i, g := range d.Grans {
		if g.BlockBits > reusedist.MaxBlockBits {
			return fmt.Errorf("granularity %q: block bits %d past %d", g.Name, g.BlockBits, reusedist.MaxBlockBits)
		}
		if len(g.LevelNames) > len(g.Thresholds) {
			return fmt.Errorf("granularity %q: %d level names for %d thresholds", g.Name, len(g.LevelNames), len(g.Thresholds))
		}
		seen := make(map[trace.RefID]bool, len(d.Refs[i]))
		for _, rd := range d.Refs[i] {
			if rd == nil {
				return fmt.Errorf("granularity %q: nil reference", g.Name)
			}
			if rd.Ref < 0 || rd.Ref >= maxRefs {
				return fmt.Errorf("granularity %q: reference ID %d outside [0, %d)", g.Name, rd.Ref, maxRefs)
			}
			if seen[rd.Ref] {
				return fmt.Errorf("granularity %q: reference %d appears twice", g.Name, rd.Ref)
			}
			seen[rd.Ref] = true
			if err := checkPatterns(rd, len(g.Thresholds)); err != nil {
				return fmt.Errorf("granularity %q: reference %d: %w", g.Name, rd.Ref, err)
			}
		}
	}
	return nil
}

// checkPatterns validates one reference's patterns. It reports the first
// problem in a fixed order rather than the first pattern met, so the same
// stream always gets the same message despite map iteration order.
func checkPatterns(rd *reusedist.RefData, thresholds int) error {
	var nilPattern, noHist, badMiss, rekeyed bool
	for k, p := range rd.Patterns {
		if p == nil {
			nilPattern = true
			continue
		}
		noHist = noHist || p.Hist == nil
		badMiss = badMiss || len(p.MissAt) != thresholds
		rekeyed = rekeyed || p.Key != k
	}
	switch {
	case nilPattern:
		return fmt.Errorf("nil pattern")
	case noHist:
		return fmt.Errorf("pattern without a histogram")
	case badMiss:
		return fmt.Errorf("pattern miss counts do not match the %d thresholds", thresholds)
	case rekeyed:
		return fmt.Errorf("pattern stored under another pattern's key")
	}
	return nil
}
