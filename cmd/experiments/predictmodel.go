package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"reusetool/internal/cache"
	"reusetool/internal/experiments"
)

// bindingString renders a parameter binding deterministically
// (sorted name=value pairs).
func bindingString(b map[string]int64) string {
	names := make([]string, 0, len(b))
	for name := range b {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s=%d", name, b[name])
	}
	return strings.Join(parts, ",")
}

// runPredictModel runs the cross-input scaling-model suite over every
// built-in workload: fit from 3 small exact runs, predict the >= 16x
// larger target, compare against the exact pipeline, and time the
// microsecond serving path. Asserts the documented error bound and the
// scale floor.
func runPredictModel(hier *cache.Hierarchy, hierName string) error {
	cases := experiments.PredictModelCases()
	rows, err := experiments.PredictModel(cases, "L2", hier, hierName)
	if err != nil {
		return err
	}

	fmt.Printf("Cross-input scaling models (%s, L2): fit 3 small runs, predict the >=16x target\n", hier.Name)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tTRAIN\tTARGET\tSCALE\tPREDICTED\tMEASURED\tERROR\tFIT ms\tPREDICT µs")
	var maxAbs float64
	for _, r := range rows {
		var train []string
		for _, b := range r.Train {
			train = append(train, bindingString(b))
		}
		if abs := math.Abs(r.RelErr); abs > maxAbs {
			maxAbs = abs
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.0fx\t%.0f\t%.0f\t%+.1f%%\t%.0f\t%.1f\n",
			r.Workload, strings.Join(train, " "), bindingString(r.Target), r.Scale,
			r.Predicted, r.Measured, r.RelErr*100, r.FitMS, r.PredictUS)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("max |error| %.1f%% (documented bound %.0f%%)\n",
		maxAbs*100, experiments.PredictModelErrBound*100)

	// The suite doubles as the assertion harness: a prediction outside
	// the documented bound, or a target that is not actually >= 16x the
	// training sizes, fails the command.
	for _, r := range rows {
		if abs := math.Abs(r.RelErr); abs > experiments.PredictModelErrBound {
			return fmt.Errorf("predict: %s: error %.1f%% exceeds documented bound %.0f%%",
				r.Workload, abs*100, experiments.PredictModelErrBound*100)
		}
		if r.Scale < 16 {
			return fmt.Errorf("predict: %s: target only %.1fx the largest training size, want >= 16x",
				r.Workload, r.Scale)
		}
	}
	return nil
}
