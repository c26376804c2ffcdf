package server

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"reusetool/internal/persist"
	"reusetool/internal/predict"
)

// CacheEntry is one content-addressed analysis result: the key is the
// SHA-256 of the canonical IR bytes plus canonicalized options (see
// resolved.cacheKey), the value is everything needed to answer the
// request without re-running the interpreter — the deterministic
// persist-v2 collector stream, the rendered text report, and the
// deterministic JSON document. Fingerprint is the collector's engine
// fingerprint at collection time. Digest covers every byte a hit
// serves; the cache records it when it admits the entry (see admit),
// and an admitted entry is immutable: the tiers share it and never
// write to it again.
type CacheEntry struct {
	Key         string
	Program     string
	Fingerprint uint64
	Artifact    []byte
	Report      []byte
	JSON        []byte

	// SampleRate is the final effective SHARDS sampling rate of the
	// analysis (the adaptive mode may finish above the configured start
	// rate); 0 for exact analyses. SampledBlocks is the number of blocks
	// admitted into the sample across granularities. Both are
	// informational — the key already encodes the sampling config, so
	// sampled and exact results can never alias.
	SampleRate    uint64
	SampledBlocks uint64

	// Model is a serialized cross-input scaling model (predict.Encode)
	// for entries in the model/ key namespace; such entries carry no
	// Artifact and their Fingerprint is the model payload's checksum
	// rather than an engine fingerprint.
	Model []byte

	// Digest is the SHA-256 over the length-prefixed Artifact, Report,
	// JSON and Model fields (see sum). It travels with the entry to
	// disk and to peers; an entry written by a build that predates it
	// decodes with the zero value, meaning "no digest".
	Digest [sha256.Size]byte
}

// sum hashes the four served fields, each prefixed with its length so
// that no byte can move from one field to its neighbour unnoticed.
func (e *CacheEntry) sum() [sha256.Size]byte {
	h := sha256.New()
	var n [8]byte
	for _, f := range [...][]byte{e.Artifact, e.Report, e.JSON, e.Model} {
		binary.BigEndian.PutUint64(n[:], uint64(len(f)))
		h.Write(n[:])
		h.Write(f)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// verify round-trips the persist artifact and checks the restored
// engines reproduce the recorded fingerprint — a corrupted or stale
// artifact (e.g. a truncated disk file predating atomic writes, or a
// tampered remote-tier response) is rejected rather than served. It
// decodes the whole artifact, so only admit calls it.
func (e *CacheEntry) verify() error {
	if len(e.Model) > 0 {
		// Model entries carry no persist artifact; the fingerprint slot
		// holds the payload checksum and the payload must decode under
		// this build's format version.
		if err := predict.Verify(e.Model, e.Fingerprint); err != nil {
			return fmt.Errorf("server: cache entry %s: %w", e.Key, err)
		}
		return nil
	}
	if len(e.Artifact) == 0 {
		return fmt.Errorf("server: cache entry %s has no artifact", e.Key)
	}
	d, err := persist.Load(bytes.NewReader(e.Artifact))
	if err != nil {
		return fmt.Errorf("server: cache entry %s: %w", e.Key, err)
	}
	if fp := d.Collector().Fingerprint(); fp != e.Fingerprint {
		return fmt.Errorf("server: cache entry %s: fingerprint %016x != recorded %016x",
			e.Key, fp, e.Fingerprint)
	}
	return nil
}

// admit is the full check an entry passes once, where it enters the
// process: at Put and PutLocal, at a disk load and at a remote GET. A
// recorded digest must match the served fields, then verify decodes
// the artifact or model. It returns the copy the tiers keep, with its
// digest recorded, so the caller's entry is never written to; an entry
// without a digest (written by an older build) gets one here. Every
// refusal counts in CacheBadVerify.
func admit(e *CacheEntry, m *Metrics) (*CacheEntry, error) {
	a := *e
	d := a.sum()
	if a.Digest != ([sha256.Size]byte{}) && a.Digest != d {
		m.CacheBadVerify.Add(1)
		return nil, fmt.Errorf("server: cache entry %s: fields do not match the recorded digest", a.Key)
	}
	if err := a.verify(); err != nil {
		m.CacheBadVerify.Add(1)
		return nil, err
	}
	a.Digest = d
	return &a, nil
}

// decodeEntry reads one gob-encoded entry that must hold key: a disk
// file, a peer's GET response or a peer's PUT body. Like admit, it
// counts every refusal in CacheBadVerify.
func decodeEntry(r io.Reader, key string, m *Metrics) (*CacheEntry, error) {
	var e CacheEntry
	if err := gob.NewDecoder(r).Decode(&e); err != nil {
		m.CacheBadVerify.Add(1)
		return nil, fmt.Errorf("decode entry: %w", err)
	}
	if e.Key != key {
		m.CacheBadVerify.Add(1)
		return nil, fmt.Errorf("entry key %s does not match path %s", e.Key, key)
	}
	return &e, nil
}

// CacheOptions sizes and wires a ResultCache.
type CacheOptions struct {
	// MaxEntries bounds the in-memory LRU tier (default 128).
	MaxEntries int
	// Dir enables the on-disk artifact tier when non-empty.
	Dir string
	// Remote enables the shared remote tier when non-nil.
	Remote *RemoteCache
	// WriteBehindDepth bounds the async queue feeding the remote tier
	// (default 64).
	WriteBehindDepth int
}

// diskQueueDepth bounds the async disk-writer queue; past it, Put
// writes the entry inline.
const diskQueueDepth = 64

// ResultCache is the three-tier content-addressed store in front of
// the scheduler: a bounded in-memory LRU, an optional on-disk artifact
// directory that survives restarts, and an optional shared remote tier
// reached over HTTP (see RemoteCache). Lookups go memory → disk →
// remote, and remote hits are filled through into the local tiers.
// Bytes are checked where they enter the process: every entry passes
// admit (digest, then the full decode and fingerprint compare) at Put,
// PutLocal, a disk load or a remote GET, and only admitted entries
// reach the memory tier. A memory hit re-hashes the served fields
// against the digest and decodes nothing.
//
// Writes never block the analysis hot path on I/O: disk writes go
// through a bounded async writer (falling back to an inline write when
// the queue is full, so durability degrades to back-pressure rather
// than loss), and remote writes go through a coalescing write-behind
// queue. Close flushes both; the daemon calls it during graceful
// drain, after the scheduler has stopped producing results.
type ResultCache struct {
	// mu guards the LRU structures and the closed flag; disk and
	// network I/O happen outside the critical sections.
	mu      sync.Mutex
	max     int
	ll      *list.List               // guarded by mu
	byKey   map[string]*list.Element // guarded by mu
	closed  bool                     // guarded by mu
	dir     string
	metrics *Metrics
	remote  *RemoteCache
	wb      *writeBehind

	diskq     chan *CacheEntry
	diskWG    sync.WaitGroup
	closeOnce sync.Once
}

// NewResultCache builds the cache. Metrics may be nil.
func NewResultCache(opts CacheOptions, m *Metrics) (*ResultCache, error) {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 128
	}
	if m == nil {
		m = NewMetrics()
	}
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("server: cache dir: %w", err)
		}
	}
	c := &ResultCache{
		max:     opts.MaxEntries,
		ll:      list.New(),
		byKey:   map[string]*list.Element{},
		dir:     opts.Dir,
		metrics: m,
		remote:  opts.Remote,
	}
	if c.dir != "" {
		c.diskq = make(chan *CacheEntry, diskQueueDepth)
		c.diskWG.Add(1)
		go c.diskWriter()
	}
	if c.remote != nil {
		c.wb = newWriteBehind(c.remote, m, opts.WriteBehindDepth)
	}
	return c, nil
}

// Len reports the number of memory-resident entries.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// WriteBehindLen reports the entries waiting in the write-behind queue.
func (c *ResultCache) WriteBehindLen() int {
	if c.wb == nil {
		return 0
	}
	return c.wb.Len()
}

// Get returns the entry for key, consulting the memory tier, then the
// disk tier, then the shared remote tier. A memory entry is served
// when its served fields still hash to its digest; a disk or remote
// entry is admitted (the full check) on the way in. A failure evicts
// the local copy and falls through to the next tier. Remote hits are
// filled through into the local tiers. ctx bounds the remote
// round-trip only — local lookups never block on it.
func (c *ResultCache) Get(ctx context.Context, key string) (*CacheEntry, bool) {
	if e, tier := c.lookupLocal(key); e != nil {
		c.metrics.CacheHits.Add(1)
		if tier == tierDisk {
			c.metrics.CacheDiskHits.Add(1)
		}
		return e, true
	}
	if c.remote != nil {
		if e, ok := c.remote.Get(ctx, key); ok {
			c.store(e)
			c.metrics.CacheHits.Add(1)
			return e, true
		}
	}
	c.metrics.CacheMisses.Add(1)
	return nil, false
}

const (
	tierMem  = "mem"
	tierDisk = "disk"
)

// lookupLocal consults the memory and disk tiers without touching the
// top-level hit/miss counters — the peer-serving handlers account
// separately from the analyze path. A memory entry was admitted on
// its way in, so its hit only re-hashes the served fields; a disk
// entry is admitted here.
func (c *ResultCache) lookupLocal(key string) (*CacheEntry, string) {
	c.mu.Lock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*CacheEntry)
		c.mu.Unlock()
		if e.sum() == e.Digest {
			return e, tierMem
		}
		c.metrics.CacheBadVerify.Add(1)
		c.drop(key)
	} else {
		c.mu.Unlock()
	}
	if e, ok := c.loadDisk(key); ok {
		c.insert(e)
		return e, tierDisk
	}
	return nil, ""
}

// Put admits a freshly computed entry and stores it in every tier:
// memory now, disk via the async writer, and the shared remote tier
// via the coalescing write-behind queue. An entry that fails the check
// is counted and not stored; the caller still holds its own copy.
func (c *ResultCache) Put(e *CacheEntry) {
	a, err := admit(e, c.metrics)
	if err != nil {
		return
	}
	c.store(a)
	if c.wb != nil {
		c.wb.Enqueue(a)
	}
}

// PutLocal admits an entry and stores it in the memory and disk tiers
// only. The peer PUT handler uses it so entries arriving from the
// write-behind queue of another node are not echoed back to the remote
// tier; the error says why an entry was refused.
func (c *ResultCache) PutLocal(e *CacheEntry) error {
	a, err := admit(e, c.metrics)
	if err != nil {
		return err
	}
	c.store(a)
	return nil
}

// store puts an admitted entry in the memory tier and queues its disk
// write.
func (c *ResultCache) store(e *CacheEntry) {
	c.insert(e)
	c.enqueueDisk(e)
}

// Close flushes the async tiers: the disk-writer queue is drained to
// stable storage and the write-behind queue to the remote tier, each
// bounded by ctx. The daemon calls this during graceful drain after
// the scheduler has finished, so SIGTERM can no longer race an
// in-flight write. Close is idempotent; Put after Close degrades to
// synchronous disk writes and drops remote writes.
func (c *ResultCache) Close(ctx context.Context) error {
	var err error
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		if c.diskq != nil {
			close(c.diskq)
			done := make(chan struct{})
			go func() {
				c.diskWG.Wait()
				close(done)
			}()
			select {
			case <-done:
			case <-ctx.Done():
				err = fmt.Errorf("server: cache close: disk queue: %w", ctx.Err())
				return
			}
		}
		if c.wb != nil {
			err = c.wb.Close(ctx)
		}
	})
	return err
}

func (c *ResultCache) insert(e *CacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.Key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[e.Key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.byKey, last.Value.(*CacheEntry).Key)
		c.metrics.CacheEvictions.Add(1)
	}
}

func (c *ResultCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.Remove(el)
		delete(c.byKey, key)
	}
}

// enqueueDisk hands an entry to the async disk writer. A full queue
// falls back to writing inline — back-pressure instead of losing the
// write — and after Close the write happens inline too, so late
// stragglers still land on disk.
func (c *ResultCache) enqueueDisk(e *CacheEntry) {
	if c.dir == "" {
		return
	}
	c.mu.Lock()
	if !c.closed {
		select {
		case c.diskq <- e:
			c.mu.Unlock()
			return
		default:
		}
	}
	c.mu.Unlock()
	c.writeDisk(e)
}

func (c *ResultCache) diskWriter() {
	defer c.diskWG.Done()
	for e := range c.diskq {
		c.writeDisk(e)
	}
}

// diskPath shards entries by the first byte of the key to keep
// directories small under millions of artifacts.
func (c *ResultCache) diskPath(key string) string {
	return filepath.Join(c.dir, key[:2], key+".entry")
}

func (c *ResultCache) writeDisk(e *CacheEntry) {
	if err := c.saveDisk(e); err != nil {
		c.metrics.DiskWriteErrors.Add(1)
	}
}

func (c *ResultCache) saveDisk(e *CacheEntry) error {
	path := c.diskPath(e.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return persist.WriteFile(path, func(w io.Writer) error { return gob.NewEncoder(w).Encode(e) })
}

// loadDisk reads and admits the disk entry for key. A file that does
// not decode, names another key or fails the check is counted in
// CacheBadVerify and removed, so it is not re-read on every miss.
func (c *ResultCache) loadDisk(key string) (*CacheEntry, bool) {
	if c.dir == "" {
		return nil, false
	}
	path := c.diskPath(key)
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	e, err := decodeEntry(f, key, c.metrics)
	f.Close()
	if err == nil {
		e, err = admit(e, c.metrics)
	}
	if err != nil {
		os.Remove(path)
		return nil, false
	}
	return e, true
}
