// Command perfbench is reusetool's whole-request benchmark. It drives
// seeded workloads through the daemon's public v1 API — pkg/client
// against the handler cmd/reusetoold serves, started in-process on a
// loopback listener — checks every response against pinned outputs, and
// prints one JSON result line.
//
//	perfbench --workload exact-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run replays each request's layers
// in-process and reports where its time and memory went. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"exact-cold", "sampled-large", "service-warm"}

func main() {
	workload := flag.String("workload", "", "workload: exact-cold, sampled-large or service-warm")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement time budget in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer run")
	pin := flag.String("pin", "", "write the output oracle for every request to this file and exit")
	flag.Parse()

	ctx := context.Background()
	if *pin != "" {
		if err := writeOracle(ctx, *pin); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if !contains(workloadNames, *workload) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames)
		os.Exit(2)
	}
	or, err := loadOracle(oracleJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, or: or}
	cpu0 := readCPUTimes()

	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = b.runTraced(ctx, *workload)
	} else {
		switch *workload {
		case "exact-cold":
			metrics, err = b.runBatch(ctx, exactCold)
		case "sampled-large":
			metrics, err = b.runBatch(ctx, sampledLarge)
		case "service-warm":
			metrics, err = b.runService(ctx)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printJSON(map[string]any{"provenance": provenance(*workload, *seed, *traced == 1, readCPUTimes().since(cpu0))})
	printJSON(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
}

func printJSON(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
