// Package metrics computes the paper's performance metrics from the
// dynamic reuse-distance data and the static fragmentation analysis:
//
//   - predicted cache misses per reference and reuse pattern, per level;
//   - miss counts attributed to scopes (exclusive and inclusive over the
//     static scope tree);
//   - carried misses per scope — the misses produced by reuse patterns a
//     scope carries — with source/destination breakdowns;
//   - fragmentation miss counts per array and per loop (Section III);
//   - irregular-pattern miss counts;
//   - the flat reuse-pattern database of Section IV, sortable by miss
//     contribution.
package metrics

import (
	"fmt"
	"sort"

	"reusetool/internal/cache"
	"reusetool/internal/reusedist"
	"reusetool/internal/scope"
	"reusetool/internal/staticanalysis"
	"reusetool/internal/symbolic"
	"reusetool/internal/trace"
)

// Source supplies the static program structure a report is built against:
// the scope tree plus names for references and the arrays they touch.
// ir.Info implements it for IR workloads; tracefile.Meta implements it for
// externally recorded traces.
type Source interface {
	// Name identifies the analyzed program.
	Name() string
	// Tree is the static scope tree the trace's scope IDs refer to.
	Tree() *scope.Tree
	// RefLabel describes a reference site: its rendered name and the name
	// of the data object (array/variable) it accesses. ok is false for
	// unknown references.
	RefLabel(id trace.RefID) (refName, arrayName string, ok bool)
}

// Model selects how histograms become miss counts.
type Model uint8

// Miss models.
const (
	// SetAssoc uses the probabilistic set-associative model (the paper's
	// predictor).
	SetAssoc Model = iota
	// FullyAssoc uses exact threshold counts at the level's capacity,
	// matching a fully-associative LRU simulation bit for bit.
	FullyAssoc
)

// PatternRecord is one row of the reuse-pattern database: one reference,
// one (source, carrying) pair, at one cache level.
type PatternRecord struct {
	Ref      trace.RefID
	RefName  string
	Array    string
	Dest     trace.ScopeID
	Source   trace.ScopeID
	Carrying trace.ScopeID
	// Count is the number of reuse arcs.
	Count uint64
	// Misses is the predicted miss count of this pattern at this level.
	Misses float64
	// Irregular marks patterns whose carrying scope induces an irregular
	// or indirect stride at the destination reference.
	Irregular bool
	// FragFactor is the fragmentation factor of the reference's related
	// group (-1 if unknown).
	FragFactor float64
	// FragMisses = max(FragFactor,0) * Misses.
	FragMisses float64
}

// LevelReport aggregates one cache level.
type LevelReport struct {
	Level cache.Level
	// Patterns is the flat pattern database, sorted by descending misses.
	Patterns []*PatternRecord
	// ColdMisses counts compulsory misses (first touch of a block).
	ColdMisses float64
	// TotalMisses includes cold misses.
	TotalMisses float64
	// CapacityMisses estimates non-compulsory misses a fully-associative
	// cache of the same size would also take (exact threshold counts),
	// and ConflictMisses the additional misses attributable to limited
	// associativity (the set-associative prediction's excess) — the
	// classic three-C classification with Compulsory = ColdMisses.
	CapacityMisses float64
	ConflictMisses float64
	// Accesses is the number of block-granularity accesses.
	Accesses uint64
	// MissesByScope is the exclusive per-destination-scope miss count
	// (cold misses attributed to the reference's scope). Indexed by
	// ScopeID.
	MissesByScope []float64
	// AccessesByScope is the per-scope block-access count (same indexing),
	// the denominator for per-scope miss rates.
	AccessesByScope []float64
	// CarriedByScope[s] is the number of misses carried by scope s.
	CarriedByScope []float64
	// FragMissesByScope attributes fragmentation misses to destination
	// scopes.
	FragMissesByScope []float64
	// IrregularMisses sums misses of irregular patterns.
	IrregularMisses float64
	// MissesByRef is the per-reference predicted miss count (cold plus all
	// patterns) — the unit static-vs-dynamic validation compares at.
	MissesByRef map[trace.RefID]float64
	// MissesByArray and FragMissesByArray aggregate by data array name —
	// the paper's per-variable attribution.
	MissesByArray     map[string]float64
	FragMissesByArray map[string]float64
}

// Report is the full analysis output for one run.
type Report struct {
	Source Source
	Hier   *cache.Hierarchy
	Levels []*LevelReport
}

// Tree returns the report's scope tree.
func (r *Report) Tree() *scope.Tree { return r.Source.Tree() }

// Level returns the named level report, or nil.
func (r *Report) Level(name string) *LevelReport {
	for _, l := range r.Levels {
		if l.Level.Name == name {
			return l
		}
	}
	return nil
}

// inTree reports whether id is a scope of tree or trace.NoScope.
func inTree(tree *scope.Tree, id trace.ScopeID) bool {
	return id == trace.NoScope || tree.Valid(id)
}

// Build computes a Report from the collected reuse-distance data, the
// static analysis, and a hierarchy. static may be nil (no fragmentation or
// irregularity attribution — e.g. for externally recorded traces).
func Build(src Source, col *reusedist.Collector, static *staticanalysis.Result,
	hier *cache.Hierarchy, model Model) (*Report, error) {

	rep := &Report{Source: src, Hier: hier}
	tree := src.Tree()
	nScopes := tree.Len()

	for _, level := range hier.Levels {
		eng, thIdx := col.LevelAt(level.Name, level.LineBits)
		if eng == nil {
			return nil, fmt.Errorf("metrics: collector has no data for level %q at %d-byte blocks",
				level.Name, level.LineSize())
		}
		lr := &LevelReport{
			Level:             level,
			MissesByScope:     make([]float64, nScopes),
			AccessesByScope:   make([]float64, nScopes),
			CarriedByScope:    make([]float64, nScopes),
			FragMissesByScope: make([]float64, nScopes),
			MissesByArray:     map[string]float64{},
			FragMissesByArray: map[string]float64{},
			MissesByRef:       map[trace.RefID]float64{},
		}
		lr.Accesses = eng.TotalAccesses()
		for s, n := range eng.AccessesByScope() {
			if s < nScopes {
				lr.AccessesByScope[s] = float64(n)
			}
		}

		for _, rd := range eng.Refs() {
			refName, arrName, ok := src.RefLabel(rd.Ref)
			if !ok {
				return nil, fmt.Errorf("metrics: unknown reference %d", rd.Ref)
			}
			// Restored data (a persisted artifact) may name scopes the
			// program does not have; the report labels every scope it
			// names, so refuse it here rather than index past the tree.
			if !inTree(tree, rd.Scope) {
				return nil, fmt.Errorf("metrics: reference %d: unknown scope %d", rd.Ref, rd.Scope)
			}
			frag := -1.0
			if static != nil {
				frag = static.FragOf(rd.Ref)
			}

			// Compulsory misses: always misses, attributed to the
			// destination scope.
			cold := float64(rd.Cold)
			lr.ColdMisses += cold
			lr.TotalMisses += cold
			if tree.Valid(rd.Scope) {
				lr.MissesByScope[rd.Scope] += cold
			}
			lr.MissesByArray[arrName] += cold
			lr.MissesByRef[rd.Ref] += cold

			// SortedPatterns (not the Patterns map) so the report — and
			// its serialized XML — is byte-identical across runs.
			for _, p := range rd.SortedPatterns(thIdx) {
				if !inTree(tree, p.Key.Source) || !inTree(tree, p.Key.Carrying) {
					return nil, fmt.Errorf("metrics: reference %d: pattern %d -> %d names an unknown scope",
						rd.Ref, p.Key.Source, p.Key.Carrying)
				}
				fa := float64(p.MissAt[thIdx])
				var misses float64
				switch model {
				case SetAssoc:
					misses = level.ExpectedMisses(p.Hist)
				case FullyAssoc:
					misses = fa
				default:
					return nil, fmt.Errorf("metrics: unknown model %d", model)
				}
				lr.CapacityMisses += fa
				if misses > fa {
					lr.ConflictMisses += misses - fa
				}
				irregular := false
				if static != nil && tree.Valid(p.Key.Carrying) {
					cls := static.StrideWRTScope(rd.Ref, p.Key.Carrying).Class
					irregular = cls == symbolic.StrideIrregular || cls == symbolic.StrideIndirect
				}
				fragMisses := 0.0
				if frag > 0 {
					fragMisses = frag * misses
				}
				rec := &PatternRecord{
					Ref:        rd.Ref,
					RefName:    refName,
					Array:      arrName,
					Dest:       rd.Scope,
					Source:     p.Key.Source,
					Carrying:   p.Key.Carrying,
					Count:      p.Count,
					Misses:     misses,
					Irregular:  irregular,
					FragFactor: frag,
					FragMisses: fragMisses,
				}
				lr.Patterns = append(lr.Patterns, rec)
				lr.TotalMisses += misses
				lr.MissesByArray[arrName] += misses
				lr.MissesByRef[rd.Ref] += misses
				if tree.Valid(rd.Scope) {
					lr.MissesByScope[rd.Scope] += misses
					lr.FragMissesByScope[rd.Scope] += fragMisses
				}
				if tree.Valid(p.Key.Carrying) {
					lr.CarriedByScope[p.Key.Carrying] += misses
				}
				if irregular {
					lr.IrregularMisses += misses
				}
				if fragMisses > 0 {
					lr.FragMissesByArray[arrName] += fragMisses
				}
			}
		}

		sort.SliceStable(lr.Patterns, func(i, j int) bool {
			a, b := lr.Patterns[i], lr.Patterns[j]
			if a.Misses != b.Misses {
				return a.Misses > b.Misses
			}
			// Total order on ties, for run-to-run reproducible reports.
			if a.Ref != b.Ref {
				return a.Ref < b.Ref
			}
			if a.Source != b.Source {
				return a.Source < b.Source
			}
			return a.Carrying < b.Carrying
		})
		rep.Levels = append(rep.Levels, lr)
	}
	return rep, nil
}

// InclusiveMisses rolls exclusive per-scope misses up the scope tree.
func (lr *LevelReport) InclusiveMisses(tree interface {
	Inclusive([]float64) []float64
}) []float64 {
	return tree.Inclusive(lr.MissesByScope)
}

// MissRate reports the exclusive per-scope miss rate (misses per block
// access) at scope s, or 0 when the scope performed no accesses.
func (lr *LevelReport) MissRate(s trace.ScopeID) float64 {
	if s < 0 || int(s) >= len(lr.AccessesByScope) || lr.AccessesByScope[s] == 0 {
		return 0
	}
	return lr.MissesByScope[s] / lr.AccessesByScope[s]
}

// CarriedPercent reports the fraction (0..1) of the level's misses carried
// by scope s.
func (lr *LevelReport) CarriedPercent(s trace.ScopeID) float64 {
	if lr.TotalMisses == 0 || int(s) >= len(lr.CarriedByScope) || s < 0 {
		return 0
	}
	return lr.CarriedByScope[s] / lr.TotalMisses
}

// TopCarriers returns scope IDs ordered by descending carried misses,
// limited to n (all if n <= 0).
func (lr *LevelReport) TopCarriers(n int) []trace.ScopeID {
	ids := make([]trace.ScopeID, len(lr.CarriedByScope))
	for i := range ids {
		ids[i] = trace.ScopeID(i)
	}
	sort.SliceStable(ids, func(a, b int) bool {
		return lr.CarriedByScope[ids[a]] > lr.CarriedByScope[ids[b]]
	})
	if n > 0 && n < len(ids) {
		ids = ids[:n]
	}
	return ids
}

// TopFragArrays returns array names ordered by descending fragmentation
// misses, limited to n (all if n <= 0).
func (lr *LevelReport) TopFragArrays(n int) []string {
	names := make([]string, 0, len(lr.FragMissesByArray))
	for a := range lr.FragMissesByArray {
		names = append(names, a)
	}
	sort.SliceStable(names, func(i, j int) bool {
		fi, fj := lr.FragMissesByArray[names[i]], lr.FragMissesByArray[names[j]]
		if fi != fj {
			return fi > fj
		}
		return names[i] < names[j]
	})
	if n > 0 && n < len(names) {
		names = names[:n]
	}
	return names
}

// ArrayPatterns returns the level's patterns touching the named array,
// sorted by descending misses.
func (lr *LevelReport) ArrayPatterns(array string) []*PatternRecord {
	var out []*PatternRecord
	for _, p := range lr.Patterns {
		if p.Array == array {
			out = append(out, p)
		}
	}
	return out
}

// CarriedBreakdown returns, for the misses carried by scope s, the
// per-(source, destination) split — the data behind Table II's rows.
type CarriedSlice struct {
	Source trace.ScopeID
	Dest   trace.ScopeID
	Array  string
	Misses float64
}

// CarriedBreakdown lists the patterns carried by s, aggregated by
// (source, dest, array), sorted by descending misses.
func (lr *LevelReport) CarriedBreakdown(s trace.ScopeID) []CarriedSlice {
	type key struct {
		src, dst trace.ScopeID
		arr      string
	}
	agg := map[key]float64{}
	for _, p := range lr.Patterns {
		if p.Carrying != s {
			continue
		}
		agg[key{p.Source, p.Dest, p.Array}] += p.Misses
	}
	out := make([]CarriedSlice, 0, len(agg))
	for k, m := range agg {
		out = append(out, CarriedSlice{Source: k.src, Dest: k.dst, Array: k.arr, Misses: m})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Misses != out[j].Misses {
			return out[i].Misses > out[j].Misses
		}
		if out[i].Array != out[j].Array {
			return out[i].Array < out[j].Array
		}
		return out[i].Source < out[j].Source
	})
	return out
}
