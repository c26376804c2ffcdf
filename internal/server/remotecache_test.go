package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// startPeer stands up a real daemon to act as the shared cache tier.
func startPeer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return drainedServer(t, Config{Workers: 1})
}

func TestRemoteTierCrossDaemonHit(t *testing.T) {
	peer, ts := startPeer(t)
	e := collectEntry(t, key(11))
	peer.Cache().PutLocal(e)

	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 4, Remote: NewRemoteCache(ts.URL, m)}, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) })

	got, ok := c.Get(t.Context(), key(11))
	if !ok || !bytes.Equal(got.Report, e.Report) {
		t.Fatal("expected verified remote hit")
	}
	if m.RemoteHits.Load() != 1 {
		t.Fatalf("remote hits = %d, want 1", m.RemoteHits.Load())
	}
	if peer.Metrics().PeerHits.Load() != 1 {
		t.Fatalf("peer hits = %d, want 1", peer.Metrics().PeerHits.Load())
	}

	// Fill-through: the second lookup is local, no extra remote trip.
	if _, ok := c.Get(t.Context(), key(11)); !ok {
		t.Fatal("fill-through entry missing")
	}
	if m.RemoteHits.Load() != 1 {
		t.Fatalf("remote hits = %d after local re-read, want 1", m.RemoteHits.Load())
	}

	// Unknown keys are remote misses, not errors.
	if _, ok := c.Get(t.Context(), key(12)); ok {
		t.Fatal("unexpected hit")
	}
	if m.RemoteMisses.Load() != 1 || m.RemoteErrors.Load() != 0 {
		t.Fatalf("misses=%d errors=%d, want 1/0", m.RemoteMisses.Load(), m.RemoteErrors.Load())
	}
}

func TestWriteBehindPropagatesToPeer(t *testing.T) {
	peer, ts := startPeer(t)
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{MaxEntries: 4, Remote: NewRemoteCache(ts.URL, m)}, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(context.Background()) })

	e := collectEntry(t, key(21))
	c.Put(e)
	deadline := time.Now().Add(5 * time.Second)
	for peer.Metrics().PeerPuts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if peer.Metrics().PeerPuts.Load() != 1 {
		t.Fatal("write-behind PUT never reached the peer")
	}
	got, ok := peer.Cache().Get(t.Context(), key(21))
	if !ok || got.Fingerprint != e.Fingerprint {
		t.Fatal("peer did not store the pushed entry")
	}
}

// TestCacheCloseFlushesAsyncTiers is the graceful-drain guarantee: a
// SIGTERM arriving right after Put must not lose the disk write or the
// queued remote write. Close must push everything out before returning.
func TestCacheCloseFlushesAsyncTiers(t *testing.T) {
	peer, ts := startPeer(t)
	dir := t.TempDir()
	m := NewMetrics()
	c, err := NewResultCache(CacheOptions{
		MaxEntries: 16,
		Dir:        dir,
		Remote:     NewRemoteCache(ts.URL, m),
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	entries := make([]*CacheEntry, n)
	for i := range entries {
		entries[i] = collectEntry(t, key(30+i))
		c.Put(entries[i])
	}
	// Close immediately — the drain race this exercises.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Every entry must be on disk (visible to a fresh cache)...
	c2, err := NewResultCache(CacheOptions{MaxEntries: 16, Dir: dir}, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if _, ok := c2.Get(t.Context(), key(30+i)); !ok {
			t.Fatalf("entry %d missing from disk after Close", i)
		}
	}
	// ...and on the remote tier.
	if got := peer.Metrics().PeerPuts.Load(); got != n {
		t.Fatalf("peer received %d PUTs, want %d", got, n)
	}

	// Put after Close degrades gracefully: inline disk write, dropped
	// remote write — never a hang or a panic.
	late := collectEntry(t, key(50))
	c.Put(late)
	c3, err := NewResultCache(CacheOptions{MaxEntries: 16, Dir: dir}, NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c3.Get(t.Context(), key(50)); !ok {
		t.Fatal("post-Close Put did not reach disk")
	}
	if m.WriteBehindDropped.Load() == 0 {
		t.Fatal("post-Close remote write not counted as dropped")
	}
}

func TestWriteBehindCoalescesPendingKey(t *testing.T) {
	// A remote that blocks until released, so entries stay queued.
	release := make(chan struct{})
	var mu sync.Mutex
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		mu.Lock()
		got = append(got, r.URL.Path)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	t.Cleanup(ts.Close)

	m := NewMetrics()
	wb := newWriteBehind(NewRemoteCache(ts.URL, m), m, 4)
	a, b := collectEntry(t, key(61)), collectEntry(t, key(62))
	wb.Enqueue(a)
	// Give the writer a moment to take "a" off the queue so the
	// coalescing below targets queued-but-not-inflight state.
	time.Sleep(50 * time.Millisecond)
	wb.Enqueue(b)
	wb.Enqueue(b) // same key: coalesces, does not grow the queue
	if m.WriteBehindCoalesced.Load() != 1 {
		t.Fatalf("coalesced = %d, want 1", m.WriteBehindCoalesced.Load())
	}
	if wb.Len() != 1 {
		t.Fatalf("queue depth = %d, want 1", wb.Len())
	}

	// Overflow: with depth 4, filling past capacity drops the newest.
	for i := 0; i < 6; i++ {
		wb.Enqueue(collectEntry(t, key(70+i)))
	}
	if m.WriteBehindDropped.Load() == 0 {
		t.Fatal("overflow not counted as dropped")
	}

	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := wb.Close(ctx); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no PUTs delivered after release")
	}
}

func TestRemoteGetRejectsCorruptEntries(t *testing.T) {
	// A peer serving a tampered entry: decodes fine, fails verification.
	bad := collectEntry(t, key(81))
	bad.Fingerprint ^= 0xbeef
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/cache/" + key(81):
			_ = gob.NewEncoder(w).Encode(bad)
		case "/v1/cache/" + key(82):
			w.Write([]byte("not gob at all"))
		default:
			// Entry whose key disagrees with the path.
			other := collectEntry(t, key(84))
			_ = gob.NewEncoder(w).Encode(other)
		}
	}))
	t.Cleanup(ts.Close)

	m := NewMetrics()
	rc := NewRemoteCache(ts.URL, m)
	for i, k := range []string{key(81), key(82), key(83)} {
		if _, ok := rc.Get(t.Context(), k); ok {
			t.Fatalf("case %d: corrupt remote entry served", i)
		}
	}
	if m.RemoteErrors.Load() != 3 {
		t.Fatalf("remote errors = %d, want 3", m.RemoteErrors.Load())
	}
	if m.RemoteHits.Load() != 0 {
		t.Fatal("corrupt entries counted as hits")
	}
}

// TestRemoteGetCapsEntryBody: a peer announcing an entry past the cap
// and streaming it is cut off there — a miss counted as one remote
// error, with the client reading no further than the cap plus
// transport buffering.
func TestRemoteGetCapsEntryBody(t *testing.T) {
	if got := NewRemoteCache("http://peer", nil).maxEntryBytes; got != maxCacheEntryBytes {
		t.Fatalf("default cap %d, want %d", got, maxCacheEntryBytes)
	}
	// The production cap is 256 MiB; the test lowers it to 4 MiB so the
	// client buffers little, and keeps the margins: the peer announces
	// a message 64 MiB past the cap, and a client that honours the cap
	// stops more than 20 MiB short of the announced size.
	const limit = 4 << 20
	const announced = limit + 64<<20
	written := make(chan int64, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A gob message opens with its byte count: one byte holding the
		// negated width of the count, then the count big-endian.
		hdr := []byte{0xfc, 0, 0, 0, 0}
		binary.BigEndian.PutUint32(hdr[1:], announced)
		var n int64
		if _, err := w.Write(hdr); err == nil {
			zeros := make([]byte, 1<<20)
			for n < announced {
				k, err := w.Write(zeros)
				n += int64(k)
				if err != nil {
					break
				}
			}
		}
		written <- n
	}))
	t.Cleanup(ts.Close)

	m := NewMetrics()
	rc := NewRemoteCache(ts.URL, m)
	rc.maxEntryBytes = limit
	if _, ok := rc.Get(t.Context(), key(71)); ok {
		t.Fatal("oversized entry served")
	}
	if m.RemoteErrors.Load() != 1 || m.RemoteMisses.Load() != 0 || m.RemoteHits.Load() != 0 {
		t.Fatalf("errors=%d misses=%d hits=%d, want 1/0/0",
			m.RemoteErrors.Load(), m.RemoteMisses.Load(), m.RemoteHits.Load())
	}
	select {
	case n := <-written:
		if n >= limit+44<<20 {
			t.Fatalf("peer streamed %d MiB before the client stopped; the cap is %d MiB", n>>20, limit>>20)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("peer still streaming 30s after Get returned")
	}
}

func TestCachePutHandlerValidation(t *testing.T) {
	_, ts := startPeer(t)
	// Malformed keys never reach the disk path logic.
	if code := putEntry(t, ts, "..%2F..%2Fetc", nil); code != http.StatusBadRequest {
		t.Fatalf("traversal key: status %d, want 400", code)
	}
	if code := putEntry(t, ts, "ABCDEF", nil); code != http.StatusBadRequest {
		t.Fatalf("short key: status %d, want 400", code)
	}
	// Key mismatch between path and entry body.
	e := collectEntry(t, key(91))
	if code := putEntry(t, ts, key(92), gobBytes(t, e)); code != http.StatusBadRequest {
		t.Fatalf("key mismatch: status %d, want 400", code)
	}
	// Tampered fingerprint is refused.
	e.Fingerprint ^= 1
	if code := putEntry(t, ts, key(91), gobBytes(t, e)); code != http.StatusBadRequest {
		t.Fatalf("tampered entry: status %d, want 400", code)
	}
	// The genuine entry is accepted.
	good := collectEntry(t, key(91))
	if code := putEntry(t, ts, key(91), gobBytes(t, good)); code != http.StatusNoContent {
		t.Fatalf("valid entry: status %d, want 204", code)
	}
}
