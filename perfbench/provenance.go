package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// provenance records what a result was measured on. The benchmark sets
// no runtime knob; GOGC, GOMAXPROCS and GODEBUG are recorded as the
// environment gave them.
func provenance(workload string, seed int64, traced bool, cpu cpuTimes) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit,
		"gogc":       os.Getenv("GOGC"),
		"godebug":    os.Getenv("GODEBUG"),
		// The share of the host's CPU time stolen by the hypervisor over
		// the whole run.
		"steal_share": cpu.stolen(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in megabytes.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTimes is the host's CPU accounting from /proc/stat, in clock ticks
// summed over all CPUs.
type cpuTimes struct {
	steal, total float64
}

// readCPUTimes reads the aggregate cpu line; on a host without it, the
// zero value makes stolen report 0.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; the guest fields
	// after them are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTimes) since(start cpuTimes) cpuTimes {
	return cpuTimes{steal: t.steal - start.steal, total: t.total - start.total}
}

// stolen is the share of the window's CPU time the hypervisor gave to
// other guests. On a shared virtual machine it comes and goes with the
// neighbours' load and stretches every request by about that share, so
// request times are reported with it taken out; on dedicated hardware
// it is 0 and the times are the raw wall times.
func (t cpuTimes) stolen() float64 {
	if t.total <= 0 {
		return 0
	}
	return t.steal / t.total
}

// processCPU is the CPU time the process has used, user and system,
// over all its threads: the client, the daemon and the garbage
// collector. Time the hypervisor stole is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
