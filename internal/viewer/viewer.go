// Package viewer renders analysis reports as text tables: the terminal
// substitute for browsing the paper's data in hpcviewer (Section IV). It
// provides the three views the case studies use:
//
//   - the top-down scope table with exclusive/inclusive misses,
//   - the carried-misses table behind Figures 5 and 10,
//   - the reuse-pattern breakdown behind Table II,
//   - the per-array fragmentation table behind Figure 9.
package viewer

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"reusetool/internal/advise"
	"reusetool/internal/depend"
	"reusetool/internal/metrics"
	"reusetool/internal/trace"
)

// ScopeTree prints the top-down scope tree with exclusive and inclusive
// miss counts for one level, skipping scopes whose inclusive share is
// below minShare.
func ScopeTree(w io.Writer, rep *metrics.Report, level string, minShare float64) error {
	lr := rep.Level(level)
	if lr == nil {
		return fmt.Errorf("viewer: unknown level %q", level)
	}
	tree := rep.Tree()
	incl := tree.Inclusive(lr.MissesByScope)
	total := lr.TotalMisses
	fmt.Fprintf(w, "%s misses: %.0f total = %.0f compulsory + %.0f capacity + %.0f conflict (%d accesses)\n",
		level, lr.TotalMisses, lr.ColdMisses, lr.CapacityMisses, lr.ConflictMisses, lr.Accesses)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCOPE\tINCL\tINCL%\tEXCL\tRATE")
	var walk func(id trace.ScopeID, depth int)
	walk = func(id trace.ScopeID, depth int) {
		if total > 0 && incl[id]/total < minShare {
			return
		}
		n := tree.Node(id)
		rate := "-"
		if r := lr.MissRate(id); r > 0 {
			rate = fmt.Sprintf("%.3f", r)
		}
		fmt.Fprintf(tw, "%s%s\t%.0f\t%.1f%%\t%.0f\t%s\n",
			strings.Repeat("  ", depth), tree.Label(id), incl[id], pct(incl[id], total),
			lr.MissesByScope[id], rate)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(tree.Root(), 0)
	return tw.Flush()
}

// CarriedTable prints the scopes carrying the most misses at one level
// (Figures 5 and 10 in the paper).
func CarriedTable(w io.Writer, rep *metrics.Report, level string, top int) error {
	lr := rep.Level(level)
	if lr == nil {
		return fmt.Errorf("viewer: unknown level %q", level)
	}
	tree := rep.Tree()
	fmt.Fprintf(w, "Scopes carrying the most %s misses (total %.0f):\n", level, lr.TotalMisses)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CARRYING SCOPE\tCARRIED\tCARRIED%")
	for _, id := range lr.TopCarriers(top) {
		if lr.CarriedByScope[id] == 0 {
			break
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f%%\n",
			tree.Path(id), lr.CarriedByScope[id], pct(lr.CarriedByScope[id], lr.TotalMisses))
	}
	return tw.Flush()
}

// PatternTable prints the top reuse patterns at one level grouped by
// array, in the shape of the paper's Table II: array, destination scope,
// source scope, carrying scope and the share of total misses.
func PatternTable(w io.Writer, rep *metrics.Report, level string, top int) error {
	lr := rep.Level(level)
	if lr == nil {
		return fmt.Errorf("viewer: unknown level %q", level)
	}
	tree := rep.Tree()
	fmt.Fprintf(w, "Main reuse patterns at %s:\n", level)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ARRAY\tIN SCOPE\tREUSE SOURCE\tCARRYING\t%MISSES\tFLAGS")
	count := 0
	for _, p := range lr.Patterns {
		if top > 0 && count >= top {
			break
		}
		flags := ""
		if p.Irregular {
			flags += "irregular "
		}
		if p.FragFactor > 0 {
			flags += fmt.Sprintf("frag=%.2f", p.FragFactor)
		}
		src := "self"
		if p.Source != p.Dest {
			src = tree.Label(p.Source)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.1f%%\t%s\n",
			p.Array, tree.Label(p.Dest), src, tree.Label(p.Carrying),
			pct(p.Misses, lr.TotalMisses), strings.TrimSpace(flags))
		count++
	}
	return tw.Flush()
}

// FragTable prints arrays ranked by fragmentation misses at one level
// (Figure 9 in the paper).
func FragTable(w io.Writer, rep *metrics.Report, level string, top int) error {
	lr := rep.Level(level)
	if lr == nil {
		return fmt.Errorf("viewer: unknown level %q", level)
	}
	var totalFrag float64
	for _, v := range lr.FragMissesByArray {
		totalFrag += v
	}
	fmt.Fprintf(w, "Arrays by %s fragmentation misses (%.0f fragmentation / %.0f total):\n",
		level, totalFrag, lr.TotalMisses)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ARRAY\tFRAG MISSES\t%OF FRAG\tARRAY MISSES")
	for _, a := range lr.TopFragArrays(top) {
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f%%\t%.0f\n",
			a, lr.FragMissesByArray[a], pct(lr.FragMissesByArray[a], totalFrag), lr.MissesByArray[a])
	}
	return tw.Flush()
}

// AdviceWith prints ranked Table I recommendations for one level. With a
// dependence analysis each recommendation is tagged [kind, legality] and
// followed by the verdict's rationale; a nil analysis prints [kind] only.
func AdviceWith(w io.Writer, rep *metrics.Report, deps *depend.Analysis, level string, minShare float64) error {
	recs := advise.AdviseWith(rep, deps, level, minShare)
	return AdviceRecs(w, recs, deps != nil, level, minShare)
}

// AdviceRecs prints already-computed recommendations; legality tags and
// notes appear only when withLegality is set.
func AdviceRecs(w io.Writer, recs []advise.Recommendation, withLegality bool, level string, minShare float64) error {
	if len(recs) == 0 {
		fmt.Fprintf(w, "No recommendations above %.0f%% of %s misses.\n", minShare*100, level)
		return nil
	}
	fmt.Fprintf(w, "Recommended transformations (%s, >= %.0f%% of misses):\n", level, minShare*100)
	for i, r := range recs {
		if withLegality {
			fmt.Fprintf(w, "%2d. [%s, %s] %.1f%% of misses: %s\n", i+1, r.Kind, r.Legality, r.Share*100, r.Rationale)
			if r.LegalityNote != "" {
				fmt.Fprintf(w, "      legality: %s\n", r.LegalityNote)
			}
			continue
		}
		fmt.Fprintf(w, "%2d. [%s] %.1f%% of misses: %s\n", i+1, r.Kind, r.Share*100, r.Rationale)
	}
	return nil
}

// ArrayTable prints arrays ranked by total misses at one level.
func ArrayTable(w io.Writer, rep *metrics.Report, level string, top int) error {
	lr := rep.Level(level)
	if lr == nil {
		return fmt.Errorf("viewer: unknown level %q", level)
	}
	names := make([]string, 0, len(lr.MissesByArray))
	for a := range lr.MissesByArray {
		names = append(names, a)
	}
	sort.SliceStable(names, func(i, j int) bool {
		mi, mj := lr.MissesByArray[names[i]], lr.MissesByArray[names[j]]
		if mi != mj {
			return mi > mj
		}
		return names[i] < names[j]
	})
	if top > 0 && top < len(names) {
		names = names[:top]
	}
	fmt.Fprintf(w, "Arrays by %s misses:\n", level)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ARRAY\tMISSES\tPCT")
	for _, a := range names {
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f%%\n", a, lr.MissesByArray[a], pct(lr.MissesByArray[a], lr.TotalMisses))
	}
	return tw.Flush()
}

// SummaryWith renders the standard report set for one level: scope
// tree, carried misses, pattern database, fragmentation, and advice,
// legality-gated when deps is non-nil (see AdviceWith).
func SummaryWith(w io.Writer, rep *metrics.Report, deps *depend.Analysis, level string, minShare float64) error {
	if err := ScopeTree(w, rep, level, minShare); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := CarriedTable(w, rep, level, 10); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := PatternTable(w, rep, level, 12); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := FragTable(w, rep, level, 8); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return AdviceWith(w, rep, deps, level, minShare)
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// Compare prints per-level miss deltas between two reports — typically
// the same workload before and after a transformation — plus the arrays
// whose misses moved the most at each level.
func Compare(w io.Writer, before, after *metrics.Report) error {
	fmt.Fprintf(w, "%s -> %s\n", before.Source.Name(), after.Source.Name())
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "LEVEL\tBEFORE\tAFTER\tCHANGE")
	for _, lb := range before.Levels {
		la := after.Level(lb.Level.Name)
		if la == nil {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%s\n",
			lb.Level.Name, lb.TotalMisses, la.TotalMisses, changeLabel(lb.TotalMisses, la.TotalMisses))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	// Biggest per-array movers at the first level.
	if len(before.Levels) == 0 {
		return nil
	}
	lb := before.Levels[0]
	la := after.Level(lb.Level.Name)
	if la == nil {
		return nil
	}
	type mover struct {
		array string
		delta float64
	}
	var movers []mover
	seen := map[string]bool{}
	for arr := range lb.MissesByArray {
		seen[arr] = true
	}
	for arr := range la.MissesByArray {
		seen[arr] = true
	}
	for arr := range seen {
		movers = append(movers, mover{array: arr, delta: la.MissesByArray[arr] - lb.MissesByArray[arr]})
	}
	sort.Slice(movers, func(i, j int) bool {
		di, dj := movers[i].delta, movers[j].delta
		if di < 0 {
			di = -di
		}
		if dj < 0 {
			dj = -dj
		}
		if di != dj {
			return di > dj
		}
		return movers[i].array < movers[j].array
	})
	if len(movers) > 5 {
		movers = movers[:5]
	}
	fmt.Fprintf(w, "largest %s movers:\n", lb.Level.Name)
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, m := range movers {
		fmt.Fprintf(tw, "  %s\t%+.0f\n", m.array, m.delta)
	}
	return tw.Flush()
}

// changeLabel renders a before->after factor, e.g. "2.5x fewer".
func changeLabel(before, after float64) string {
	switch {
	case before == after:
		return "unchanged"
	case after == 0:
		return "eliminated"
	case before == 0:
		return "new"
	case after < before:
		return fmt.Sprintf("%.1fx fewer", before/after)
	default:
		return fmt.Sprintf("%.1fx more", after/before)
	}
}
