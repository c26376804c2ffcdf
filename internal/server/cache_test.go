package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/persist"
	"reusetool/internal/reusedist"
	"reusetool/internal/workloads"
	"reusetool/pkg/client"
)

// collectEntry runs a small workload and packages it like the server
// would, so cache tests exercise real persist artifacts.
func collectEntry(t *testing.T, key string) *CacheEntry {
	t.Helper()
	prog := workloads.Fig2()
	info, err := prog.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	col := reusedist.NewCollectorWith(cache.ScaledItanium2().Granularities(), reusedist.Config{})
	if _, err := interp.Run(info, nil, col); err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	if err := persist.Save(&artifact, persist.Snapshot(col, prog.Name, nil)); err != nil {
		t.Fatal(err)
	}
	return &CacheEntry{
		Key:         key,
		Program:     prog.Name,
		Fingerprint: col.Fingerprint(),
		Artifact:    artifact.Bytes(),
		Report:      []byte("report for " + key),
		JSON:        []byte(`{"k":"` + key + `"}`),
	}
}

func key(i int) string { return fmt.Sprintf("%064d", i) }

func TestCacheHitVerifiesFingerprint(t *testing.T) {
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 4}, m)
	if err != nil {
		t.Fatal(err)
	}
	e := collectEntry(t, key(1))
	c.Put(e)
	got, ok := c.Get(t.Context(), key(1))
	if !ok || !bytes.Equal(got.Report, e.Report) {
		t.Fatal("expected verified hit")
	}
	if m.CacheHits.Load() != 1 || m.CacheMisses.Load() != 0 {
		t.Fatalf("hit/miss counters wrong: %d/%d", m.CacheHits.Load(), m.CacheMisses.Load())
	}

	// Corrupt the recorded fingerprint: the entry must be rejected and
	// evicted instead of served.
	bad := collectEntry(t, key(2))
	bad.Fingerprint ^= 0xdead
	c.Put(bad)
	if _, ok := c.Get(t.Context(), key(2)); ok {
		t.Fatal("corrupted entry served")
	}
	if m.CacheBadVerify.Load() != 1 {
		t.Fatalf("verify-failure counter = %d, want 1", m.CacheBadVerify.Load())
	}
	if _, ok := c.Get(t.Context(), key(2)); ok {
		t.Fatal("corrupted entry resurrected")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 2}, m)
	if err != nil {
		t.Fatal(err)
	}
	e1, e2, e3 := collectEntry(t, key(1)), collectEntry(t, key(2)), collectEntry(t, key(3))
	c.Put(e1)
	c.Put(e2)
	c.Get(t.Context(), key(1)) // promote 1; 2 becomes LRU
	c.Put(e3)                  // evicts 2
	if _, ok := c.Get(t.Context(), key(2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get(t.Context(), key(1)); !ok {
		t.Fatal("promoted entry evicted")
	}
	if _, ok := c.Get(t.Context(), key(3)); !ok {
		t.Fatal("fresh entry evicted")
	}
	if m.CacheEvictions.Load() != 1 {
		t.Fatalf("evictions = %d, want 1", m.CacheEvictions.Load())
	}
}

func TestCacheDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 4, Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
	e := collectEntry(t, key(7))
	c.Put(e)
	// Disk writes are async; Close flushes them (the daemon does the
	// same during graceful drain).
	if err := c.Close(t.Context()); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory — as after a daemon restart —
	// must satisfy the key from disk, with the fingerprint verified.
	m2 := NewMetrics()
	c2, err := NewResultCache(CacheOptions{MaxEntries: 4, Dir: dir}, m2)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(t.Context(), key(7))
	if !ok {
		t.Fatal("disk tier miss after restart")
	}
	if !bytes.Equal(got.JSON, e.JSON) || got.Fingerprint != e.Fingerprint {
		t.Fatal("disk entry does not round-trip")
	}
	if m2.CacheDiskHits.Load() != 1 {
		t.Fatalf("disk-hit counter = %d, want 1", m2.CacheDiskHits.Load())
	}

	// A truncated disk artifact must be detected, not served.
	path := filepath.Join(dir, key(7)[:2], key(7)+".entry")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	c3, err := NewResultCache(CacheOptions{MaxEntries: 4, Dir: dir}, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(t.Context(), key(7)); ok {
		t.Fatal("truncated disk entry served")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c, err := NewResultCache(CacheOptions{MaxEntries: 8, Dir: t.TempDir()}, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	// Flush the async disk writer before TempDir cleanup.
	t.Cleanup(func() { c.Close(context.Background()) })
	entries := make([]*CacheEntry, 4)
	for i := range entries {
		entries[i] = collectEntry(t, key(i))
	}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				e := entries[(g+i)%len(entries)]
				if i%3 == 0 {
					c.Put(e)
				} else if got, ok := c.Get(t.Context(), e.Key); ok && got.Fingerprint != e.Fingerprint {
					t.Error("cross-key fingerprint mixup")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// analyzeEntry analyzes req cold, the way the daemon does, and returns
// the entry it would cache.
func analyzeEntry(tb testing.TB, req client.AnalyzeRequest) *CacheEntry {
	tb.Helper()
	rr, err := resolve(req, 0)
	if err != nil {
		tb.Fatal(err)
	}
	e, err := rr.execute(context.Background(), false)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// maxMemoryHitAllocs bounds the allocations of one memory hit: at most
// the digest's hash state and its small buffers, where the compiler
// does not keep them on the stack. Decoding the static sweep3d
// artifact takes about 21,000, so the bound shows a hit decodes
// nothing.
const maxMemoryHitAllocs = 8

// TestMemoryHitDoesNotDecode: a memory hit re-hashes the entry it
// serves and decodes nothing — no persist.Load, reusedist.Restore or
// predict.Decode — which the allocation counts of a sweep3d hit and a
// fitted-model hit show.
func TestMemoryHitDoesNotDecode(t *testing.T) {
	ctx := context.Background()
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(ctx)
	rf, err := resolveFit(fig2Fit(), 0)
	if err != nil {
		t.Fatal(err)
	}
	model, err := s.fit(ctx, rf, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []*CacheEntry{analyzeEntry(t, client.AnalyzeRequest{Workload: "sweep3d", Mode: "static"}), model} {
		c, err := NewResultCache(CacheOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.Put(e)
		if _, ok := c.Get(ctx, e.Key); !ok {
			t.Fatalf("%s: admitted entry missed", e.Program)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := c.Get(ctx, e.Key); !ok {
				t.Fatalf("%s: memory hit missed", e.Program)
			}
		})
		if allocs > maxMemoryHitAllocs {
			t.Fatalf("%s: memory hit of a %d-byte artifact and %d-byte model allocates %.0f times, want at most %d",
				e.Program, len(e.Artifact), len(e.Model), allocs, maxMemoryHitAllocs)
		}
	}
}

// TestCacheConcurrentHitsOnOneEntry has many goroutines hit one memory
// entry at once; under -race it shows that serving the shared,
// immutable entry writes nothing.
func TestCacheConcurrentHitsOnOneEntry(t *testing.T) {
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{}, m)
	if err != nil {
		t.Fatal(err)
	}
	e := collectEntry(t, key(3))
	c.Put(e)
	const goroutines, hits = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < hits; i++ {
				got, ok := c.Get(context.Background(), e.Key)
				if !ok || !bytes.Equal(got.Report, e.Report) || !bytes.Equal(got.JSON, e.JSON) {
					t.Error("concurrent memory hit missed or served other bytes")
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := m.CacheHits.Load(); got != goroutines*hits {
		t.Fatalf("hits = %d, want %d", got, goroutines*hits)
	}
	if m.CacheBadVerify.Load() != 0 {
		t.Fatal("a concurrent hit failed its digest")
	}
}

// TestTornDiskFilesAreRemoved: a disk file that does not decode, or
// that holds another key's entry, is counted as a failed check and
// removed, so later misses do not read it again.
func TestTornDiskFilesAreRemoved(t *testing.T) {
	dir := t.TempDir()
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) })

	var other bytes.Buffer
	if err := gob.NewEncoder(&other).Encode(collectEntry(t, key(8))); err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		key(9):  []byte("not gob at all"),
		key(10): other.Bytes(), // key(8)'s entry under key(10)'s name
	}
	for k, data := range files {
		path := c.diskPath(k)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		for k := range files {
			if _, ok := c.Get(context.Background(), k); ok {
				t.Fatalf("torn disk file for %s served", k)
			}
			if _, err := os.Stat(c.diskPath(k)); !os.IsNotExist(err) {
				t.Fatalf("torn disk file for %s still on disk (stat: %v)", k, err)
			}
		}
		if got := m.CacheBadVerify.Load(); got != uint64(len(files)) {
			t.Fatalf("round %d: verify failures = %d, want %d", round, got, len(files))
		}
	}
}

// BenchmarkCacheHit times a hit on an exact sweep3d entry from each
// local tier: a memory hit re-hashes the served fields, a disk hit
// decodes the file and runs the full check on it. http is a memory hit
// as a client sees it: the request through the daemon's handler on
// loopback, its job document written, read and decoded by pkg/client.
func BenchmarkCacheHit(b *testing.B) {
	req := client.AnalyzeRequest{Workload: "sweep3d"}
	e := analyzeEntry(b, req)
	ctx := context.Background()
	b.Run("memory", func(b *testing.B) {
		c, err := NewResultCache(CacheOptions{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		c.Put(e)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := c.Get(ctx, e.Key); !ok {
				b.Fatal("memory miss")
			}
		}
	})
	b.Run("disk", func(b *testing.B) {
		m := NewMetrics()
		c, err := NewResultCache(CacheOptions{Dir: b.TempDir()}, m)
		if err != nil {
			b.Fatal(err)
		}
		c.Put(e)
		if err := c.Close(ctx); err != nil { // flushes the disk write
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.drop(e.Key) // so that Get reads the disk tier
			if _, ok := c.Get(ctx, e.Key); !ok {
				b.Fatal("disk miss")
			}
		}
		b.StopTimer()
		if got := m.CacheDiskHits.Load(); got != uint64(b.N) {
			b.Fatalf("%d disk hits in %d lookups", got, b.N)
		}
	})
	b.Run("http", func(b *testing.B) {
		s, err := New(Config{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Drain(ctx)
		s.cache.Put(e)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		cl := client.New(ts.URL)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := cl.Analyze(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if !job.CacheHit || len(job.Result) != len(e.JSON) {
				b.Fatalf("not a memory hit of the entry: cache_hit %v, %d-byte result", job.CacheHit, len(job.Result))
			}
		}
	})
}
