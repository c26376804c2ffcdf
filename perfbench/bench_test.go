package main

import (
	"context"
	"reflect"
	"testing"
	"time"

	"reusetool/pkg/client"
)

func TestSameSeedSameOps(t *testing.T) {
	seq := func(seed int64) []op {
		m := newMix(seed, 24)
		var ops []op
		for i := 0; i < 5000; i++ {
			o, ok := m.next()
			if !ok {
				break
			}
			ops = append(ops, o)
		}
		return ops
	}
	a, b := seq(7), seq(7)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 7 gave two different service-warm sequences (%d and %d ops)", len(a), len(b))
	}
	if reflect.DeepEqual(a, seq(8)) {
		t.Fatal("seeds 7 and 8 gave the same service-warm sequence")
	}
	x, y := rotationOrders(7, 4), rotationOrders(7, 4)
	for i := 0; i < 10; i++ {
		if ox, oy := x(), y(); !reflect.DeepEqual(ox, oy) {
			t.Fatalf("rotation %d: orders %v and %v from the same seed", i, ox, oy)
		}
	}
}

func TestMissesNeverRepeat(t *testing.T) {
	m := newMix(3, 24)
	seen := map[string]bool{}
	for {
		o, ok := m.next()
		if !ok {
			break
		}
		if o.kind == opMiss {
			if seen[o.miss.label] {
				t.Fatalf("miss %s drawn twice", o.miss.label)
			}
			seen[o.miss.label] = true
		}
	}
	if len(seen) != len(missPools)*missesPerPool {
		t.Fatalf("drew %d misses before the pools ran out, want %d", len(seen), len(missPools)*missesPerPool)
	}
}

// A warm hit whose report differs from the cold response by one byte,
// or a response that differs from the oracle by one byte, is a failure.
func TestFlippedReportByteFails(t *testing.T) {
	ctx := context.Background()
	or, err := loadOracle(oracleJSON)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{or: or}
	d, err := startDaemon(servicePoll)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop(ctx)
	r := request{"fig1b", client.AnalyzeRequest{Workload: "fig1b"}}
	cold, err := b.analyze(ctx, d, r.req, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := or.checkJob(r.label, cold.job, false); err != nil {
		t.Fatalf("untouched cold response: %v", err)
	}

	flipped := *cold.job
	rep := []byte(flipped.Report)
	rep[len(rep)/2] ^= 1
	flipped.Report = string(rep)
	if _, err := or.checkJob(r.label, &flipped, false); err == nil {
		t.Fatal("a flipped report byte passed the oracle")
	}

	w := &warmCache{d: d, hits: []request{r}, cold: []*client.Job{&flipped}}
	if _, _, err := b.serve(ctx, w, op{kind: opHit}, nil, 0); err == nil {
		t.Fatal("a hit that differs from the cold response by one byte passed")
	}
	w.cold[0] = cold.job
	if _, _, err := b.serve(ctx, w, op{kind: opHit}, nil, 0); err != nil {
		t.Fatalf("an unchanged hit failed: %v", err)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	ms := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{99, 0.9, false}, {100, 0.9, true},
		{19, 0.5, false}, {20, 0.5, true},
	} {
		if _, ok := percentile(ms(c.n), c.q); ok != c.ok {
			t.Errorf("p%g of %d samples: reported %v, want %v", c.q*100, c.n, ok, c.ok)
		}
	}
	if v, _ := percentile(ms(1000), 0.99); v < 989 || v > 991 {
		t.Errorf("p99 of 1..1000 ms = %v", v)
	}
}

// maccess_per_s is total accesses over total time: a 10 s request
// weighs ten times a 1 s one.
func TestMaccessIsRatioOfSums(t *testing.T) {
	s := newSamples(map[string]float64{"a": 1})
	for _, r := range []struct {
		acc  float64
		wall time.Duration
	}{{100e6, time.Second}, {10e6, 10 * time.Second}} {
		s.record(opMiss, "a", r.wall, r.wall)
		s.record(opHit, "a", time.Millisecond, time.Millisecond)
		s.maccess.add(r.acc, r.wall)
	}
	s.setup = []time.Duration{time.Second}
	m, err := s.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if got := m["maccess_per_s"].Value; got != 10 {
		t.Fatalf("maccess_per_s = %v, want 110 Macc / 11 s = 10 (the mean of ratios would be 50.5)", got)
	}
	// A window in which a quarter of the host's CPU time was stolen
	// stretches every request by that share; it is taken out.
	s.cpu = cpuTimes{steal: 25, total: 100}
	if m, _ := s.endToEnd(); m["maccess_per_s"].Value != 10/0.75 {
		t.Fatalf("maccess_per_s with a quarter stolen = %v, want %v", m["maccess_per_s"].Value, 10/0.75)
	}
}

// hit_cpu_ms weighs each key's median by the key's designed share, so
// one slow hit or a seed that drew a key more often does not move it.
func TestHitMSWeighsKeyMedians(t *testing.T) {
	s := newSamples(map[string]float64{"cheap": 3, "dear": 1})
	for _, ms := range []int{1, 1, 1, 1, 1, 1, 50} {
		d := time.Duration(ms) * time.Millisecond
		s.record(opHit, "cheap", d, d)
	}
	s.record(opHit, "dear", 10*time.Millisecond, 10*time.Millisecond)
	if got, _ := s.hitMS(); got != 3.25 {
		t.Fatalf("hit_cpu_ms = %v, want (3*1 + 1*10)/4 = 3.25", got)
	}
}
