// Scaling: the cross-input modeling the paper inherits from Marin &
// Mellor-Crummey [14]. Collects per-pattern reuse-distance histograms for
// a stencil at several training sizes, fits one scaling model per reuse
// pattern (internal/predict), predicts the miss count at a larger size
// never measured, and validates the prediction against a real run at
// that size.
//
//	go run ./examples/scaling
package main

import (
	"fmt"
	"log"
	"os"

	"reusetool/internal/cache"
	"reusetool/internal/core"
	"reusetool/internal/ir"
	"reusetool/internal/predict"
	"reusetool/internal/workloads"
)

func main() {
	hier := cache.ScaledItanium2()
	const level = "L3"

	train := []int64{32, 48, 64}
	const target = 128

	fmt.Printf("training on stencil sizes %v, predicting N=%d\n\n", train, target)

	info, err := workloads.Stencil(train[0], 2).Finalize()
	if err != nil {
		log.Fatal(err)
	}
	var runs []*predict.TrainingRun
	for _, n := range train {
		res := analyze(info, n, hier)
		run, err := res.TrainingRun()
		if err != nil {
			log.Fatal(err)
		}
		runs = append(runs, run)
		fmt.Printf("  N=%3d: %9d accesses\n", n, res.Run.Accesses)
	}

	m, err := predict.Fit(info, runs, predict.FitOptions{HierName: "scaled"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	m.WriteSummary(os.Stdout)

	p, err := m.Predict(map[string]int64{"N": target})
	if err != nil {
		log.Fatal(err)
	}
	var predicted float64
	for _, lm := range p.LevelMisses(hier) {
		if lm.Level == level {
			predicted = lm.Total
		}
	}

	// Validate against a real run at the target size.
	actual := analyze(info, target, hier).Report.Level(level).TotalMisses

	fmt.Printf("\npredicted %s misses at N=%d: %.0f\n", level, target, predicted)
	fmt.Printf("measured  %s misses at N=%d: %.0f\n", level, target, actual)
	fmt.Printf("relative error: %+.1f%%\n", 100*(predicted-actual)/actual)
}

// analyze runs the stencil at size n.
func analyze(info *ir.Info, n int64, hier *cache.Hierarchy) *core.Result {
	res, err := core.Pipeline{
		Source:  core.DynamicSource{Info: info},
		Options: core.Options{Hierarchy: hier, Params: map[string]int64{"N": n}},
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}
