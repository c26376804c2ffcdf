package experiments

import (
	"sort"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/workloads"
)

// ---------------------------------------------------------------------
// Figure 9: GTC arrays by L3 fragmentation misses.
// ---------------------------------------------------------------------

// Fig9Row is one array's fragmentation standing.
type Fig9Row struct {
	Array       string
	FragMisses  float64
	TotalMisses float64
}

// Fig9Result ranks arrays by fragmentation misses at L3.
type Fig9Result struct {
	Rows []Fig9Row
	// ZionShareOfFrag is the fraction of all fragmentation misses caused
	// by the zion particle arrays (paper: ~95%).
	ZionShareOfFrag float64
	// ZionFragShareOfZionMisses is fragmentation's share of all zion
	// misses (paper: ~48%).
	ZionFragShareOfZionMisses float64
	// ZionFragShareOfProgram is zion fragmentation's share of all L3
	// misses in the program (paper: ~13.7%).
	ZionFragShareOfProgram float64
}

func isZion(name string) bool {
	return len(name) >= 4 && name[:4] == "zion"
}

// Fig9 reproduces the paper's Figure 9: the data arrays contributing the
// most L3 fragmentation misses in GTC. In the paper the zion/zion0
// arrays (and the particle_array alias) account for ~95% of all
// fragmentation misses.
func Fig9(cfg workloads.GTCConfig, hier *cache.Hierarchy) (*Fig9Result, error) {
	prog, init, err := workloads.GTC(cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.Pipeline{
		Source:  core.DynamicSource{Prog: prog, Init: init},
		Options: core.Options{Hierarchy: hier},
	}.Run()
	if err != nil {
		return nil, err
	}
	lr := res.Report.Level("L3")
	out := &Fig9Result{}
	var totalFrag, zionFrag, zionMisses float64
	for _, arr := range lr.TopFragArrays(0) {
		row := Fig9Row{
			Array:       arr,
			FragMisses:  lr.FragMissesByArray[arr],
			TotalMisses: lr.MissesByArray[arr],
		}
		out.Rows = append(out.Rows, row)
		totalFrag += row.FragMisses
		if isZion(arr) {
			zionFrag += row.FragMisses
		}
	}
	for arr, m := range lr.MissesByArray {
		if isZion(arr) {
			zionMisses += m
		}
	}
	if totalFrag > 0 {
		out.ZionShareOfFrag = zionFrag / totalFrag
	}
	if zionMisses > 0 {
		out.ZionFragShareOfZionMisses = zionFrag / zionMisses
	}
	if lr.TotalMisses > 0 {
		out.ZionFragShareOfProgram = zionFrag / lr.TotalMisses
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 10: GTC scopes carrying the most L3 and TLB misses.
// ---------------------------------------------------------------------

// Fig10Result holds the ranked carrying scopes for L3 and TLB.
type Fig10Result struct {
	L3  []CarrierShare
	TLB []CarrierShare
	// MainLoopsL3 is the combined share of the time-step and RK loops
	// (paper: ~40% together, time-step loop alone ~11%).
	MainLoopsL3 float64
	// PushiL3 is the share carried by the pushi routine (paper: ~20%).
	PushiL3 float64
	// SmoothTLB is the share of TLB misses carried by the smooth loop
	// nest (paper: ~64%).
	SmoothTLB float64
}

// Fig10 reproduces the paper's Figures 10(a) and (b): the program scopes
// carrying the most L3 cache misses and TLB misses in GTC.
func Fig10(cfg workloads.GTCConfig, hier *cache.Hierarchy) (*Fig10Result, error) {
	if cfg.TimeSteps < 2 {
		// Cross-time-step reuse (the paper's ~11% carried by the main
		// loop) only exists with at least two steps.
		cfg.TimeSteps = 2
	}
	prog, init, err := workloads.GTC(cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.Pipeline{
		Source:  core.DynamicSource{Prog: prog, Init: init},
		Options: core.Options{Hierarchy: hier},
	}.Run()
	if err != nil {
		return nil, err
	}
	out := &Fig10Result{
		L3:  carrierShares(res.Report, "L3", nil, 12),
		TLB: carrierShares(res.Report, "TLB", nil, 12),
	}
	out.MainLoopsL3 = findShare(out.L3, "loop tstep") + findShare(out.L3, "loop irk")
	out.PushiL3 = findShare(out.L3, "routine pushi")
	// The smooth nest: the routine plus its loops (i1 for the original
	// order).
	out.SmoothTLB = findShare(out.TLB, "loop i1") + findShare(out.TLB, "loop i2") +
		findShare(out.TLB, "loop i3") + findShare(out.TLB, "routine smooth")
	return out, nil
}

// ---------------------------------------------------------------------
// Figure 11: GTC miss and time curves vs particles per cell.
// ---------------------------------------------------------------------

// Fig11Row is one point of the Figure 11 curves, normalized per particle
// per cell per time step as in the paper.
type Fig11Row struct {
	Variant                                string
	Micell                                 int64
	L2PerMicell, L3PerMicell, TLBPerMicell float64
	CyclesPerMicell                        float64
}

// Fig11 reproduces the paper's Figures 11(a)-(d): L2/L3/TLB misses and
// run time per particle-per-cell as the number of particles grows, for
// the seven cumulative transformation variants. Expected shape: the zion
// transpose provides the dominant miss reduction; smooth/poisson/spcpft
// matter only at small particle counts; pushi tiling cuts misses further
// but not time (instruction-cache effect, modeled via the non-stall
// scale).
func Fig11(base workloads.GTCConfig, micells []int64, hier *cache.Hierarchy) ([]Fig11Row, error) {
	// GTC performs roughly eight arithmetic operations per memory
	// reference (gyro-averaging and field interpolation), so its
	// non-stall time is weighted accordingly; this is what keeps the
	// paper's overall win at ~1.5x despite much larger miss reductions.
	h := *hier
	h.BaseCPI = 8
	hier = &h
	type job struct {
		mc int64
		v  workloads.GTCVariant
	}
	var jobs []job
	for _, mc := range micells {
		cfg := base
		cfg.Micell = mc
		for _, v := range workloads.GTCVariants(cfg) {
			jobs = append(jobs, job{mc: mc, v: v})
		}
	}
	rows := make([]Fig11Row, len(jobs))
	err := forEachParallel(len(jobs), func(i int) error {
		j := jobs[i]
		prog, init, err := workloads.GTC(j.v.Config)
		if err != nil {
			return err
		}
		sr, err := simulate(prog, init, core.Options{Hierarchy: hier})
		if err != nil {
			return err
		}
		norm := float64(j.mc * base.TimeSteps)
		b := sr.Cycles(j.v.NonStall)
		rows[i] = Fig11Row{
			Variant:         j.v.Label,
			Micell:          j.mc,
			L2PerMicell:     float64(sr.Misses("L2")) / norm,
			L3PerMicell:     float64(sr.Misses("L3")) / norm,
			TLBPerMicell:    float64(sr.Misses("TLB")) / norm,
			CyclesPerMicell: b.Total / norm,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig11Find returns the row for a variant at a particle count.
func Fig11Find(rows []Fig11Row, variant string, micell int64) *Fig11Row {
	for i := range rows {
		if rows[i].Variant == variant && rows[i].Micell == micell {
			return &rows[i]
		}
	}
	return nil
}

// Fig11Variants lists the distinct variant labels in curve order.
func Fig11Variants(rows []Fig11Row) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		if !seen[r.Variant] {
			seen[r.Variant] = true
			out = append(out, r.Variant)
		}
	}
	return out
}

// Fig11Micells lists the distinct particle counts in ascending order.
func Fig11Micells(rows []Fig11Row) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for _, r := range rows {
		if !seen[r.Micell] {
			seen[r.Micell] = true
			out = append(out, r.Micell)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
