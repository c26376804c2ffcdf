package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"reusetool/internal/cache"
	"reusetool/internal/experiments"
)

// runSampling runs the SHARDS differential suite over the named
// workloads, prints the comparison table, asserts the documented error
// bound and R=1 identity, and optionally runs the adaptive
// bounded-memory demo.
func runSampling(names []string, hier *cache.Hierarchy, rates []uint64, repeat int, demoAccesses uint64, demoBlocks int) error {
	if len(rates) == 0 {
		rates = []uint64{1, 8, 64}
	}

	rows, err := experiments.Sampling(names, hier, rates, repeat)
	if err != nil {
		return err
	}

	fmt.Printf("Sampling suite (%s, fastest of %d):\n", hier.Name, repeat)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tACCESSES\tRATE\tNS/ACCESS\tSPEEDUP\tIDENTICAL\tBOUNDED ERR\tBLOCKS\tARCS")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\texact\t%.1f\t\t\t\t\t\n", r.Workload, r.Accesses, r.ExactNs)
		for _, rr := range r.Rates {
			fmt.Fprintf(tw, "\t\t1/%d\t%.1f\t%.2fx\t%v\t%.1f%%\t%d\t%d\n",
				rr.Rate, rr.NsPerAccess, rr.Speedup, rr.Identical, rr.MaxContractErr()*100,
				rr.AdmittedBlocks, rr.SampledArcs)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// The suite is also the assertion harness CI's bench smoke leans on:
	// an R=1 run that is not bit-identical, or an in-contract estimate
	// outside the documented bound, fails the command.
	for _, r := range rows {
		for _, rr := range r.Rates {
			if rr.Rate == 1 && !rr.Identical {
				return fmt.Errorf("sampling: %s: R=1 fingerprint differs from exact", r.Workload)
			}
			if e := rr.MaxContractErr(); e > experiments.SamplingErrBound {
				return fmt.Errorf("sampling: %s: R=%d in-contract error %.1f%% exceeds documented bound %.0f%%",
					r.Workload, rr.Rate, e*100, experiments.SamplingErrBound*100)
			}
		}
	}

	if demoAccesses > 0 {
		return runSamplingDemo(hier, demoAccesses, demoBlocks)
	}
	return nil
}

// runSamplingDemo streams the synthetic adaptive-cap demonstration: a
// billion accesses complete in bounded memory because the tracked-block
// count never exceeds the cap.
func runSamplingDemo(hier *cache.Hierarchy, accesses uint64, maxBlocks int) error {
	footprint := accesses / 16
	if footprint < 1<<20 {
		footprint = 1 << 20
	}
	fmt.Printf("\nAdaptive bounded-memory demo: %d accesses over %d blocks, cap %d blocks/engine\n",
		accesses, footprint, maxBlocks)
	r, err := experiments.SamplingAdaptiveDemo(accesses, footprint, maxBlocks, hier)
	if err != nil {
		return err
	}
	fmt.Printf("  completed in %.1fs (%.1f ns/access); peak tracked blocks %d (cap %d), final rate 1/%d\n",
		r.Seconds, r.NsPerAccess, r.PeakBlocks, r.MaxBlocks, r.FinalRate)
	fmt.Printf("  estimated accesses %d vs true %d (%.2f%% error)\n",
		r.EstAccesses, r.Accesses, r.RelErr*100)
	if r.PeakBlocks > r.MaxBlocks {
		return fmt.Errorf("sampling demo: peak tracked blocks %d exceeded cap %d", r.PeakBlocks, r.MaxBlocks)
	}
	return nil
}
