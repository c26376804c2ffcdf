package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile;
// with fewer, the tail is an anecdote, not a measurement.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of samples, in
// milliseconds, by linear interpolation between order statistics. ok is
// false when fewer than minBeyond samples lie beyond it, so a p99 needs
// at least 1000 samples. Medians are reported at any sample count (see
// median): a batch run's dozen requests have an exact median but no
// tail.
func percentile(samples []time.Duration, q float64) (ms float64, ok bool) {
	n := len(samples)
	// Samples at ranks above ceil(q*n) lie beyond the q-quantile; the
	// epsilon keeps 0.9*100 from rounding up to 91.
	beyond := n - int(math.Ceil(q*float64(n)-1e-9))
	if n == 0 || beyond < minBeyond {
		return 0, false
	}
	return quantileMS(samples, q), true
}

// median returns the sample median in milliseconds (mean of the two
// middle values for an even count); ok is false for an empty sample.
func median(samples []time.Duration) (ms float64, ok bool) {
	if len(samples) == 0 {
		return 0, false
	}
	return quantileMS(samples, 0.5), true
}

func quantileMS(samples []time.Duration, q float64) float64 {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	v := float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
	return v / float64(time.Millisecond)
}

// rate is a ratio of sums: total work over total time. Averaging
// per-request rates would weight a short request as much as a long one;
// summing first weights each request by the time it took.
type rate struct {
	work float64
	wall time.Duration
}

func (r *rate) add(work float64, wall time.Duration) {
	r.work += work
	r.wall += wall
}

// perSecond reports work per second of summed wall time (0 when no time
// was recorded).
func (r rate) perSecond() float64 {
	if r.wall <= 0 {
		return 0
	}
	return r.work / r.wall.Seconds()
}
