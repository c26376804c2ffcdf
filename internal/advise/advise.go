// Package advise implements Table I of the paper: mapping each significant
// reuse pattern to the program transformation most likely to improve it.
//
// Using S, D and C for the source, destination and carrying scopes of a
// pattern:
//
//	large fragmentation misses on one array  -> split the array (AoS→SoA)
//	many irregular misses, S ≡ D             -> data/computation reordering
//	S ≡ D, C an outer loop of the same nest  -> loop interchange / dimension
//	                                            interchange / blocking
//	S ≢ D, C in the same routine             -> fuse S and D
//	S ≢ D, S or D in a routine called from C -> strip-mine both, promote the
//	                                            stripe loops out of C, fuse
//	C a time-step or program main loop       -> time skewing, or accept the
//	                                            misses as intrinsic
//
// Each recommendation carries a legality verdict from the symbolic
// dependence analyzer (package depend) when one is supplied: interchange
// is checked against the (<,>) rule, fusion against fusion-preventing
// backward dependences, time skewing against constant carried distances,
// and strip-mining is always legal. A pattern whose time skewing is
// provably blocked is reported as intrinsic instead. Verdicts degrade to
// "unknown" — never to a wrong "legal" — whenever a subscript is
// non-affine or indirect, so the advice stays guidance, as in the paper,
// but guidance that names the dependence standing in the way.
package advise

import (
	"fmt"
	"sort"

	"reusetool/internal/depend"
	"reusetool/internal/ir"
	"reusetool/internal/metrics"
	"reusetool/internal/scope"
	"reusetool/internal/trace"
)

// Kind enumerates transformation classes from Table I.
type Kind uint8

// Transformation kinds.
const (
	// KindSplitArray recommends splitting an array of records into one
	// array per field.
	KindSplitArray Kind = iota
	// KindReorder recommends data or computation reordering for irregular
	// access patterns.
	KindReorder
	// KindInterchange recommends loop interchange, dimension interchange,
	// or blocking.
	KindInterchange
	// KindFuse recommends fusing the source and destination loops.
	KindFuse
	// KindStripMineFuse recommends strip-mining source and destination
	// with a common stripe and promoting the stripe loops out of the
	// carrying scope.
	KindStripMineFuse
	// KindTimeSkew marks reuse carried by time-step or main loops:
	// time skewing if legal, otherwise intrinsic misses.
	KindTimeSkew
	// KindGeneral is the fallback when no specific rule applies.
	KindGeneral
	// KindIntrinsic marks misses whose only candidate transformation
	// (time skewing) is provably illegal: the paper's "accept the
	// misses" outcome.
	KindIntrinsic
	// KindHoist recommends hoisting a loop-invariant load into a scalar
	// before its innermost loop (from the static reuse checker).
	KindHoist
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindSplitArray:
		return "split-array"
	case KindReorder:
		return "reorder"
	case KindInterchange:
		return "interchange/blocking"
	case KindFuse:
		return "fuse"
	case KindStripMineFuse:
		return "strip-mine+fuse"
	case KindTimeSkew:
		return "time-skew/intrinsic"
	case KindGeneral:
		return "general"
	case KindIntrinsic:
		return "intrinsic"
	case KindHoist:
		return "hoist"
	}
	return "?"
}

// Recommendation is one ranked piece of tuning advice.
type Recommendation struct {
	Kind Kind
	// Array is set for KindSplitArray.
	Array string
	// Source, Dest, Carrying identify the pattern for pattern-derived
	// advice (trace.NoScope for array-level advice).
	Source, Dest, Carrying trace.ScopeID
	// Misses is the predicted misses this advice addresses.
	Misses float64
	// Share is Misses / total level misses.
	Share float64
	// Rationale is a human-readable explanation.
	Rationale string
	// Legality is the dependence analyzer's verdict on the recommended
	// transformation (LegalityUnknown when no analysis was supplied).
	Legality depend.Legality
	// LegalityNote explains the verdict: the blocking dependence and
	// direction vector for an illegal one, the unresolved subscript for
	// an unknown one, the required skew for time skewing.
	LegalityNote string
}

// AdviseWith analyzes one level of a report and returns recommendations
// for every pattern (and fragmented array) whose misses exceed minShare
// of the level's total, ranked by descending misses. Each
// recommendation's legality is decided by the dependence analysis, which
// must come from the same program the report was measured on. A nil
// analysis leaves every verdict unknown.
func AdviseWith(rep *metrics.Report, deps *depend.Analysis, levelName string, minShare float64) []Recommendation {
	lr := rep.Level(levelName)
	if lr == nil || lr.TotalMisses == 0 {
		return nil
	}
	tree := rep.Tree()
	var out []Recommendation

	// Array-level fragmentation advice.
	for _, arr := range lr.TopFragArrays(0) {
		fm := lr.FragMissesByArray[arr]
		if fm/lr.TotalMisses < minShare {
			continue
		}
		out = append(out, Recommendation{
			Kind:     KindSplitArray,
			Array:    arr,
			Source:   trace.NoScope,
			Dest:     trace.NoScope,
			Carrying: trace.NoScope,
			Misses:   fm,
			Share:    fm / lr.TotalMisses,
			Rationale: fmt.Sprintf(
				"array %s loses %.0f misses at %s to cache-line fragmentation; split it into one array per field (AoS to SoA)",
				arr, fm, levelName),
		})
	}

	// Pattern-level advice. Several references in one loop often produce
	// the same pattern (same array, same scopes); their recommendations
	// merge, summing the addressed misses, before the threshold applies.
	type recKey struct {
		kind                   Kind
		array                  string
		source, dest, carrying trace.ScopeID
	}
	merged := map[recKey]*Recommendation{}
	var order []recKey
	for _, p := range lr.Patterns {
		r := classify(tree, p)
		k := recKey{kind: r.Kind, array: p.Array, source: r.Source, dest: r.Dest, carrying: r.Carrying}
		if prev, ok := merged[k]; ok {
			prev.Misses += p.Misses
			continue
		}
		r.Misses = p.Misses
		rc := r
		merged[k] = &rc
		order = append(order, k)
	}
	for _, k := range order {
		r := merged[k]
		r.Share = r.Misses / lr.TotalMisses
		if r.Share < minShare {
			continue
		}
		out = append(out, *r)
	}

	if deps != nil {
		for i := range out {
			applyLegality(deps, &out[i])
		}
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].Misses > out[j].Misses })
	return out
}

// applyLegality fills the Legality fields of one recommendation from
// the dependence analysis, and downgrades time skewing to intrinsic
// when the analyzer proves no skew can align the carried dependences.
func applyLegality(deps *depend.Analysis, r *Recommendation) {
	loopOf := func(s trace.ScopeID) *ir.Loop {
		if s == trace.NoScope {
			return nil
		}
		return deps.Info.LoopByScope[s]
	}
	switch r.Kind {
	case KindSplitArray:
		r.Legality = depend.Legal
		r.LegalityNote = "splitting the array changes layout only; no iterations are reordered"
	case KindInterchange:
		if c := loopOf(r.Carrying); c != nil {
			v := deps.Interchange(c)
			r.Legality, r.LegalityNote = v.Legality, v.Note
		} else {
			r.LegalityNote = "carrying scope is not a loop"
		}
	case KindFuse:
		l1, l2 := loopOf(r.Source), loopOf(r.Dest)
		if l1 != nil && l2 != nil {
			v := deps.Fuse(l1, l2)
			r.Legality, r.LegalityNote = v.Legality, v.Note
		} else {
			r.LegalityNote = "source or destination scope is not a loop"
		}
	case KindStripMineFuse:
		v := deps.StripMine(loopOf(r.Carrying))
		r.Legality, r.LegalityNote = v.Legality, v.Note
	case KindTimeSkew:
		c := loopOf(r.Carrying)
		if c == nil {
			r.LegalityNote = "carrying scope is not a loop"
			return
		}
		v := deps.TimeSkew(c)
		r.Legality, r.LegalityNote = v.Legality, v.Note
		if v.Legality == depend.Illegal {
			r.Kind = KindIntrinsic
			r.Rationale = fmt.Sprintf(
				"reuse carried by the time-step/main loop %s cannot be time-skewed (%s); these misses are intrinsic",
				c.Var.Name, v.Note)
		}
	default:
		// Data/computation reordering and the general fallback change
		// the program beyond what loop dependences decide.
		r.LegalityNote = "legality of this transformation is not analyzed"
	}
}

// classify applies the Table I rules to one pattern.
func classify(tree *scope.Tree, p *metrics.PatternRecord) Recommendation {
	rec := Recommendation{Source: p.Source, Dest: p.Dest, Carrying: p.Carrying}
	sLabel := tree.Label(p.Source)
	dLabel := tree.Label(p.Dest)
	cLabel := tree.Label(p.Carrying)
	sameSD := p.Source == p.Dest

	carryingValid := tree.Valid(p.Carrying)

	// Time-step / main loops first: Table I's "hard or impossible" row.
	if carryingValid && tree.Node(p.Carrying).TimeStep {
		rec.Kind = KindTimeSkew
		rec.Rationale = fmt.Sprintf(
			"reuse of %s in %s is carried by the time-step/main loop %s; apply time skewing if possible, otherwise these misses are intrinsic",
			p.Array, dLabel, cLabel)
		return rec
	}

	if p.Irregular && sameSD {
		rec.Kind = KindReorder
		rec.Rationale = fmt.Sprintf(
			"irregular reuse of %s within %s (carried by %s); apply data or computation reordering",
			p.Array, dLabel, cLabel)
		return rec
	}

	if sameSD {
		if carryingValid && tree.Node(p.Carrying).Kind == scope.KindLoop &&
			tree.IsAncestor(p.Carrying, p.Dest) &&
			tree.EnclosingRoutine(p.Carrying) == tree.EnclosingRoutine(p.Dest) {
			rec.Kind = KindInterchange
			rec.Rationale = fmt.Sprintf(
				"reuse of %s in %s is carried by outer loop %s of the same nest; interchange the carrying loop inwards, interchange the array's dimensions, or block the nest",
				p.Array, dLabel, cLabel)
			return rec
		}
		rec.Kind = KindGeneral
		rec.Rationale = fmt.Sprintf(
			"reuse of %s within %s carried by %s; shorten the reuse distance across the carrying scope",
			p.Array, dLabel, cLabel)
		return rec
	}

	// S != D.
	srcRoutine := tree.EnclosingRoutine(p.Source)
	dstRoutine := tree.EnclosingRoutine(p.Dest)
	carRoutine := trace.NoScope
	if carryingValid {
		carRoutine = tree.EnclosingRoutine(p.Carrying)
	}
	if srcRoutine == dstRoutine && srcRoutine == carRoutine && srcRoutine != trace.NoScope {
		rec.Kind = KindFuse
		rec.Rationale = fmt.Sprintf(
			"%s is written/last touched in %s and reused in %s within the same routine (carried by %s); fuse the two loops",
			p.Array, sLabel, dLabel, cLabel)
		return rec
	}
	rec.Kind = KindStripMineFuse
	rec.Rationale = fmt.Sprintf(
		"%s is last touched in %s but reused in %s, across routines under %s; strip-mine both with a common stripe and promote the stripe loops out of the carrying scope, fusing them",
		p.Array, sLabel, dLabel, cLabel)
	return rec
}
