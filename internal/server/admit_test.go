package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"reusetool/pkg/client"
)

// drainedServer starts a daemon that is drained when the test ends,
// so its async disk and remote writes finish before the test's temp
// dirs and peers go away.
func drainedServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, ts
}

// putEntry PUTs a gob body to a daemon's peer-cache route.
func putEntry(t *testing.T, ts *httptest.Server, key string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+key, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// servePeer stands in for a cache peer that answers GET /v1/cache/key
// with body, misses every other key and accepts every PUT.
func servePeer(t *testing.T, key string, body []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPut:
			w.WriteHeader(http.StatusNoContent)
		case r.URL.Path == "/v1/cache/"+key:
			w.Write(body)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submitJob posts an analyze or fit request and requires it to be
// queued (202, not a cache hit), then waits for it to finish.
func submitJob(t *testing.T, ts *httptest.Server, path string, req any) *client.Job {
	t.Helper()
	status, env, body := postJSON(t, ts, path, req)
	if status != http.StatusAccepted {
		t.Fatalf("POST %s: status %d (%s), want 202", path, status, env.Err.Message)
	}
	var j client.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	done := pollDone(t, ts, j.ID)
	if done.Status != client.JobDone || done.CacheHit {
		t.Fatalf("POST %s: job %s (hit %v): %s", path, done.Status, done.CacheHit, done.Error)
	}
	return done
}

// TestByteFlipRefusedAtEveryEntryPoint flips one byte in each served
// field of an admitted entry — the Artifact, Report and JSON of an
// analysis, the Model of a fitted model — and offers the entry where
// bytes enter a daemon: its disk tier, a peer's GET response and a
// peer's PUT body. Each is refused and counted, and the request falls
// through to a recompute whose bytes match the genuine result.
func TestByteFlipRefusedAtEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	src, srcTS := drainedServer(t, Config{})
	analyze := client.AnalyzeRequest{Workload: "fig2"}
	fit := fig2Fit()
	genuine := map[string]*client.Job{
		"/v1/analyze": submitJob(t, srcTS, "/v1/analyze", analyze),
		"/v1/fit":     submitJob(t, srcTS, "/v1/fit", fit),
	}
	analyzeKey, err := CacheKeyFor(analyze)
	if err != nil {
		t.Fatal(err)
	}
	modelKey, err := ModelKeyFor(fit)
	if err != nil {
		t.Fatal(err)
	}
	result, ok := src.Cache().Get(ctx, analyzeKey)
	if !ok {
		t.Fatal("genuine analysis not cached")
	}
	model, ok := src.Cache().Get(ctx, modelKey)
	if !ok || len(model.Model) == 0 {
		t.Fatal("genuine model not cached")
	}

	flip := func(b []byte) []byte {
		out := bytes.Clone(b)
		out[len(out)/2] ^= 0xff
		return out
	}
	cases := []struct {
		field string
		entry *CacheEntry
		flip  func(e *CacheEntry)
		path  string
		req   any
	}{
		{"Artifact", result, func(e *CacheEntry) { e.Artifact = flip(e.Artifact) }, "/v1/analyze", analyze},
		{"Report", result, func(e *CacheEntry) { e.Report = flip(e.Report) }, "/v1/analyze", analyze},
		{"JSON", result, func(e *CacheEntry) { e.JSON = flip(e.JSON) }, "/v1/analyze", analyze},
		{"Model", model, func(e *CacheEntry) { e.Model = flip(e.Model) }, "/v1/fit", fit},
	}
	for _, tc := range cases {
		bad := *tc.entry
		tc.flip(&bad)
		body := gobBytes(t, &bad)
		// recompute resubmits the request the entry answers and requires
		// a cold run that reproduces the genuine bytes.
		recompute := func(t *testing.T, ts *httptest.Server) {
			t.Helper()
			got, want := submitJob(t, ts, tc.path, tc.req), genuine[tc.path]
			if got.Report != want.Report || !bytes.Equal(got.Result, want.Result) {
				t.Fatal("recomputed result differs from the genuine one")
			}
		}
		refusals := func(t *testing.T, s *Server) {
			t.Helper()
			if got := s.Metrics().CacheBadVerify.Load(); got != 1 {
				t.Fatalf("verify failures = %d, want 1", got)
			}
		}

		t.Run(tc.field+"/disk", func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, bad.Key[:2], bad.Key+".entry")
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, body, 0o644); err != nil {
				t.Fatal(err)
			}
			s, ts := drainedServer(t, Config{CacheDir: dir})
			recompute(t, ts)
			refusals(t, s)
		})
		t.Run(tc.field+"/peer GET", func(t *testing.T) {
			peer := servePeer(t, bad.Key, body)
			s, ts := drainedServer(t, Config{RemoteCache: peer.URL})
			recompute(t, ts)
			refusals(t, s)
			if got := s.Metrics().RemoteErrors.Load(); got != 1 {
				t.Fatalf("remote errors = %d, want 1", got)
			}
		})
		t.Run(tc.field+"/peer PUT", func(t *testing.T) {
			s, ts := drainedServer(t, Config{})
			if code := putEntry(t, ts, bad.Key, body); code != http.StatusBadRequest {
				t.Fatalf("PUT of a flipped entry: status %d, want 400", code)
			}
			refusals(t, s)
			recompute(t, ts)
		})
	}
}

// legacyEntry is CacheEntry as builds before the digest encoded it.
type legacyEntry struct {
	Key           string
	Program       string
	Fingerprint   uint64
	Artifact      []byte
	Report        []byte
	JSON          []byte
	SampleRate    uint64
	SampledBlocks uint64
	Model         []byte
}

// TestLegacyEntryGetsDigest: an entry without a digest, in the gob
// format of builds that predate it, passes the full check at each
// entry point, is served, and is kept with its digest recorded.
func TestLegacyEntryGetsDigest(t *testing.T) {
	ctx := context.Background()
	e := collectEntry(t, key(5))
	body := gobBytes(t, &legacyEntry{
		Key: e.Key, Program: e.Program, Fingerprint: e.Fingerprint,
		Artifact: e.Artifact, Report: e.Report, JSON: e.JSON,
	})
	served := func(t *testing.T, got *CacheEntry, ok bool) {
		t.Helper()
		if !ok {
			t.Fatal("legacy entry not served")
		}
		if !bytes.Equal(got.Report, e.Report) || !bytes.Equal(got.JSON, e.JSON) {
			t.Fatal("legacy entry served other bytes")
		}
		if got.Digest == ([32]byte{}) || got.Digest != got.sum() {
			t.Fatal("legacy entry kept without its digest")
		}
	}

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		c, err := NewResultCache(CacheOptions{Dir: dir}, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(context.Background()) })
		path := c.diskPath(e.Key)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(ctx, e.Key)
		served(t, got, ok)
		got, ok = c.Get(ctx, e.Key) // now a memory hit
		served(t, got, ok)
	})
	t.Run("peer GET", func(t *testing.T) {
		peer := servePeer(t, e.Key, body)
		m := NewMetrics()
		c, err := NewResultCache(CacheOptions{Remote: NewRemoteCache(peer.URL, m)}, m)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(context.Background()) })
		got, ok := c.Get(ctx, e.Key)
		served(t, got, ok)
	})
	t.Run("peer PUT", func(t *testing.T) {
		s, ts := drainedServer(t, Config{})
		if code := putEntry(t, ts, e.Key, body); code != http.StatusNoContent {
			t.Fatalf("PUT of a legacy entry: status %d, want 204", code)
		}
		got, ok := s.Cache().Get(ctx, e.Key)
		served(t, got, ok)
	})
}
