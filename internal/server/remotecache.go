package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// The remote cache tier is a content-addressed GET/PUT protocol over
// HTTP: any reusetoold daemon serves it (GET/PUT /v1/cache/{key}), so
// a "shared tier" is just another daemon — a dedicated cache node or a
// worker peer — reached by the SHA-256 key the local tiers already
// use. Entries travel as gob (the disk tier's encoding) with their
// digest, and both directions admit what they receive with the full
// check (digest, then the artifact decode and fingerprint compare; see
// admit): the server refuses to store a torn entry, the client refuses
// to serve one, and both count the refusal in CacheBadVerify.

// remotePutTimeout bounds one write-behind PUT so a dead cache peer
// cannot wedge the queue.
const remotePutTimeout = 15 * time.Second

// maxCacheEntryBytes bounds a peer-supplied entry body, in both
// directions: the PUT handler and RemoteCache.Get stop reading there.
const maxCacheEntryBytes int64 = 256 << 20

// RemoteCache is the client side of the shared tier.
type RemoteCache struct {
	base    string
	hc      *http.Client
	metrics *Metrics
	// maxEntryBytes caps the entry body Get reads: maxCacheEntryBytes,
	// held per client so a test can lower it instead of streaming
	// 256 MiB.
	maxEntryBytes int64
}

// NewRemoteCache targets the daemon at base (e.g. "http://cache:8375").
// Metrics may be nil.
func NewRemoteCache(base string, m *Metrics) *RemoteCache {
	if m == nil {
		m = NewMetrics()
	}
	return &RemoteCache{
		base:          strings.TrimRight(base, "/"),
		hc:            &http.Client{},
		metrics:       m,
		maxEntryBytes: maxCacheEntryBytes,
	}
}

// BaseURL reports the shared-tier address.
func (r *RemoteCache) BaseURL() string { return r.base }

// Get fetches and admits one entry. Misses and failures are
// distinguished on the metrics (a miss is normal, an error is a sick
// peer) but both report !ok to the caller. An entry that arrives but
// is refused counts in CacheBadVerify as well as RemoteErrors.
func (r *RemoteCache) Get(ctx context.Context, key string) (*CacheEntry, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+"/v1/cache/"+key, nil)
	if err != nil {
		r.metrics.RemoteErrors.Add(1)
		return nil, false
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		r.metrics.RemoteErrors.Add(1)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		r.metrics.RemoteMisses.Add(1)
		return nil, false
	}
	if resp.StatusCode != http.StatusOK {
		r.metrics.RemoteErrors.Add(1)
		return nil, false
	}
	e, err := decodeEntry(io.LimitReader(resp.Body, r.maxEntryBytes), key, r.metrics)
	if err == nil {
		e, err = admit(e, r.metrics)
	}
	if err != nil {
		r.metrics.RemoteErrors.Add(1)
		return nil, false
	}
	r.metrics.RemoteHits.Add(1)
	return e, true
}

// Put stores one entry on the shared tier.
func (r *RemoteCache) Put(ctx context.Context, e *CacheEntry) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(e); err != nil {
		r.metrics.RemoteErrors.Add(1)
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, r.base+"/v1/cache/"+e.Key, &body)
	if err != nil {
		r.metrics.RemoteErrors.Add(1)
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.hc.Do(req)
	if err != nil {
		r.metrics.RemoteErrors.Add(1)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		r.metrics.RemoteErrors.Add(1)
		return fmt.Errorf("server: remote cache put %s: status %d", e.Key, resp.StatusCode)
	}
	r.metrics.RemotePuts.Add(1)
	return nil
}

// validCacheKey accepts exactly the keys resolved.cacheKey produces: a
// 64-character lowercase hex SHA-256. Everything else is rejected
// before it can reach the key-prefixed disk paths.
func validCacheKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// writeBehind is the bounded, coalescing queue between Put on the
// analysis path and the remote tier: the hot path only ever appends to
// an in-memory map, and a single background writer pushes entries out.
// Re-putting a key that is still queued replaces the pending value
// (coalescing); a full queue drops the newest write (the entry is
// already safe in the local tiers, so the shared tier just warms a
// little slower). Close stops intake and drains what is queued,
// bounded by the caller's context.
type writeBehind struct {
	rc      *RemoteCache
	metrics *Metrics

	// mu guards the queue state below.
	mu      sync.Mutex
	pending map[string]*CacheEntry // guarded by mu
	order   []string               // guarded by mu
	closed  bool                   // guarded by mu

	max  int
	wake chan struct{}
	done chan struct{}
}

func newWriteBehind(rc *RemoteCache, m *Metrics, depth int) *writeBehind {
	if depth <= 0 {
		depth = 64
	}
	w := &writeBehind{
		rc:      rc,
		metrics: m,
		pending: map[string]*CacheEntry{},
		max:     depth,
		wake:    make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
	go w.run()
	return w
}

// Len reports the queued entries.
func (w *writeBehind) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.order)
}

// Enqueue schedules an entry for the remote tier.
func (w *writeBehind) Enqueue(e *CacheEntry) {
	w.mu.Lock()
	switch {
	case w.closed:
		w.mu.Unlock()
		w.metrics.WriteBehindDropped.Add(1)
		return
	case w.pending[e.Key] != nil:
		w.pending[e.Key] = e
		w.mu.Unlock()
		w.metrics.WriteBehindCoalesced.Add(1)
	case len(w.order) >= w.max:
		w.mu.Unlock()
		w.metrics.WriteBehindDropped.Add(1)
		return
	default:
		w.pending[e.Key] = e
		w.order = append(w.order, e.Key)
		w.mu.Unlock()
	}
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// pop removes the oldest queued entry.
func (w *writeBehind) pop() (*CacheEntry, bool, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.order) == 0 {
		return nil, false, w.closed
	}
	key := w.order[0]
	w.order = w.order[1:]
	e := w.pending[key]
	delete(w.pending, key)
	return e, true, w.closed
}

// run is the single background writer. Each PUT runs under its own
// deadline, rooted here rather than in any request context: a queued
// write must survive the submitting request ending.
//
//reuse:ctx-root
func (w *writeBehind) run() {
	defer close(w.done)
	for {
		e, ok, closed := w.pop()
		if !ok {
			if closed {
				return
			}
			<-w.wake
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), remotePutTimeout)
		_ = w.rc.Put(ctx, e) // metrics recorded inside Put
		cancel()
	}
}

// Close stops intake and waits for the queue to drain, bounded by ctx.
// Entries still queued when ctx expires are counted dropped.
func (w *writeBehind) Close(ctx context.Context) error {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
	select {
	case <-w.done:
		return nil
	case <-ctx.Done():
		w.mu.Lock()
		remaining := len(w.order)
		w.order = nil
		w.pending = map[string]*CacheEntry{}
		w.mu.Unlock()
		if remaining > 0 {
			w.metrics.WriteBehindDropped.Add(uint64(remaining))
		}
		return fmt.Errorf("server: write-behind drain: %w (%d entries dropped)", ctx.Err(), remaining)
	}
}
