package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name   string        `json:"name"`
	Req    int           `json:"req"`    // request the span belongs to
	Parent int           `json:"parent"` // index of the parent span; -1 for a root
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the same replay code runs traced and untraced.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, req, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: time.Since(r.epoch)})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	if r == nil || i < 0 {
		return 0
	}
	r.spans[i].End = time.Since(r.epoch)
	return r.spans[i].dur()
}

// timed runs f inside a span named name.
func (r *recorder) timed(name string, req, parent int, f func()) {
	i := r.begin(name, req, parent)
	f()
	r.end(i)
}

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children count once. kids must be sorted by start.
func selfTime(s span, kids []span) time.Duration {
	covered := time.Duration(0)
	cur := s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, cur), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			cur = hi
		}
	}
	return s.dur() - covered
}

// unattributed is the share of the named roots' time that no child
// span covers.
func (r *recorder) unattributed(roots ...string) float64 {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var total, self time.Duration
	for i, s := range r.spans {
		if s.Parent != -1 || !contains(roots, s.Name) {
			continue
		}
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		total += s.dur()
		self += selfTime(s, ks)
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// byName sums the durations and counts the spans of one name.
func (r *recorder) byName(name string) (total time.Duration, n int) {
	for _, s := range r.spans {
		if s.Name == name {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// meanMS is the mean duration of the named spans in milliseconds.
func (r *recorder) meanMS(name string) float64 {
	t, n := r.byName(name)
	if n == 0 {
		return 0
	}
	return t.Seconds() * 1e3 / float64(n)
}

// write saves the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
