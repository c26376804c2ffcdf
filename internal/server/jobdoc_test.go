package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"reusetool/internal/workloads"
	"reusetool/pkg/client"
)

// hitDocument is the job document serve answers a memory hit on e with.
func hitDocument(s *Server, e *CacheEntry) *client.Job {
	doc := s.sched.jobs.Add(e.Key, e).Doc()
	return &doc
}

// requireSameJobBytes writes doc with WriteJSON, the specification, and
// with WriteJob, and requires the same status, Content-Type and body,
// and a Content-Length equal to the body's length.
func requireSameJobBytes(t *testing.T, name string, status int, doc *client.Job) {
	t.Helper()
	want, got := httptest.NewRecorder(), httptest.NewRecorder()
	WriteJSON(want, status, doc)
	WriteJob(got, status, doc)
	if got.Code != want.Code {
		t.Fatalf("%s: status %d, want %d", name, got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Fatalf("%s: Content-Type %q, want %q", name, g, w)
	}
	if g, w := got.Body.Bytes(), want.Body.Bytes(); !bytes.Equal(g, w) {
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s: bodies of %d and %d bytes differ at byte %d: %q, want %q",
			name, len(g), len(w), i, g[max(0, i-20):min(len(g), i+20)], w[max(0, i-20):min(len(w), i+20)])
	}
	if cl := got.Header().Get("Content-Length"); cl != strconv.Itoa(got.Body.Len()) {
		t.Fatalf("%s: Content-Length %q for a %d-byte body", name, cl, got.Body.Len())
	}
}

// FuzzWriteJobMatchesEncoder: WriteJob writes the bytes the generic
// encoder writes for any job document. The seeds hold real memory-hit
// documents, the other document shapes both roles send, and the
// strings whose escaping the encoder decides.
func FuzzWriteJobMatchesEncoder(f *testing.F) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Drain(context.Background())
	add := func(d *client.Job) {
		f.Add(d.APIVersion, d.ID, string(d.Status), d.Key, d.CacheHit, d.Node, d.Rerouted,
			d.Error, d.Submitted, d.Started, d.Finished, d.Report, d.Result)
	}
	for _, workload := range []string{"fig2", "stencil"} {
		add(hitDocument(s, analyzeEntry(f, client.AnalyzeRequest{Workload: workload})))
	}
	const (
		key   = "6f1c0e93a2b4d5c6e7f8091a2b3c4d5e6f708192a3b4c5d6e7f8091a2b3c4d5e"
		stamp = "2026-10-19T22:02:28.123456789Z"
	)
	escapes := "<b>&amp;</b>    \xff\xfe\xc3 \x00\x01\x1f\x7f \"quoted\" back\\slash\t\n\r é 日本"
	for _, d := range []*client.Job{
		// 202 queued, as serve and the coordinator's admit answer.
		{APIVersion: client.APIVersion, ID: "j00000001", Status: client.JobQueued, Key: key, Submitted: stamp},
		// A failed job with its error.
		{APIVersion: client.APIVersion, ID: "j00000002", Status: client.JobFailed, Key: key,
			Error: "context deadline exceeded: interp: loop at sweep.f:12", Submitted: stamp, Started: stamp, Finished: stamp},
		// A coordinator document: the worker that ran it, and reroutes.
		{APIVersion: client.APIVersion, ID: "c-000007", Status: client.JobDone, Key: key, Node: "http://127.0.0.1:8375",
			Rerouted: 2, Submitted: stamp, Started: stamp, Finished: stamp, Report: "L2 misses: 12\n", Result: []byte(`{"a":1}`)},
		// Strings the encoder escapes, in every string field.
		{APIVersion: escapes, ID: escapes, Status: client.JobStatus(escapes), Key: escapes, CacheHit: true, Node: escapes,
			Rerouted: -1, Error: escapes, Submitted: escapes, Started: escapes, Finished: escapes, Report: escapes,
			Result: []byte(escapes)},
		// An empty report, a nil result, and an empty non-nil result.
		{ID: "j1", Status: client.JobDone, Key: key, Result: []byte{0}},
		{ID: "j2", Status: client.JobDone, Key: key, Report: "r", Result: nil},
		{ID: "j3", Status: client.JobDone, Key: key, Report: "r", Result: []byte{}},
		{},
	} {
		add(d)
	}
	f.Fuzz(func(t *testing.T, apiVersion, id, status, key string, cacheHit bool, node string, rerouted int,
		errMsg, submitted, started, finished, report string, result []byte) {
		doc := &client.Job{
			APIVersion: apiVersion, ID: id, Status: client.JobStatus(status), Key: key, CacheHit: cacheHit,
			Node: node, Rerouted: rerouted, Error: errMsg, Submitted: submitted, Started: started,
			Finished: finished, Report: report, Result: result,
		}
		code := http.StatusOK
		if doc.Status == client.JobQueued {
			code = http.StatusAccepted
		}
		requireSameJobBytes(t, "fuzzed document", code, doc)
	})
}

// TestWriteJobMatchesEncoderOnEveryProgram writes the memory-hit
// document of every built-in workload and programs/*.loop with both
// writers.
func TestWriteJobMatchesEncoderOnEveryProgram(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	reqs := map[string]client.AnalyzeRequest{}
	for _, name := range workloads.Names() {
		reqs[name] = client.AnalyzeRequest{Workload: name}
	}
	files, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.loop"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs/*.loop (%v)", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		reqs[filepath.Base(path)] = client.AnalyzeRequest{Program: string(src)}
	}
	for name, req := range reqs {
		requireSameJobBytes(t, name, http.StatusOK, hitDocument(s, analyzeEntry(t, req)))
	}
}

// TestJobPayloadFieldsComeLast: WriteJob appends the report and the
// result after the marshalled head, so they must stay client.Job's
// last two JSON fields, in that order.
func TestJobPayloadFieldsComeLast(t *testing.T) {
	typ := reflect.TypeOf(client.Job{})
	var names []string
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		name, _, _ := strings.Cut(tag, ",")
		if name == "" {
			name = f.Name
		}
		names = append(names, name)
	}
	if n := len(names); n < 2 || names[n-2] != "report" || names[n-1] != "result" {
		t.Fatalf("client.Job's JSON fields end %q, want report then result: WriteJob writes those two after every other field", names)
	}
}

// countingWriter is a ResponseWriter that keeps nothing but the status
// and the body's length.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header         { return w.header }
func (w *countingWriter) WriteHeader(status int)      { w.status = status }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestMemoryHitAllocation bounds what a memory hit allocates, through
// the whole analyze handler, at twice the document it sends. Passing
// the report and result through the generic encoder's indent pass
// costs 4.4-4.75 times the document.
func TestMemoryHitAllocation(t *testing.T) {
	const hits = 20
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background())
	for _, workload := range []string{"sweep3d", "gtc"} {
		req := client.AnalyzeRequest{Workload: workload}
		s.cache.Put(analyzeEntry(t, req))
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hit := func() int {
			w := &countingWriter{header: http.Header{}}
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/analyze", bytes.NewReader(body)))
			if w.status != http.StatusOK {
				t.Fatalf("%s: status %d, want a 200 hit", workload, w.status)
			}
			return w.n
		}
		size := hit()
		perHit := func() float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < hits; i++ {
				hit()
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) / hits
		}
		// MemStats counts the whole process, so an allocation elsewhere
		// can inflate one measurement: fail only when both exceed.
		bound := 2 * float64(size)
		a, b := perHit(), perHit()
		if a > bound && b > bound {
			t.Fatalf("%s: a memory hit allocates %.0f and %.0f bytes for a %d-byte document, want at most %.0f",
				workload, a, b, size, bound)
		}
		t.Logf("%s: %d-byte document, %.2fx and %.2fx its size allocated per hit", workload, size, a/float64(size), b/float64(size))
	}
}

// TestMemoryHitSendsContentLength: a worker's memory hit answers with
// a Content-Length, not a chunked body, and its document decodes
// through pkg/client to the cold job's report and result.
func TestMemoryHitSendsContentLength(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ctx := context.Background()
	cl := client.New(ts.URL)
	req := client.AnalyzeRequest{Workload: "fig2"}
	cold, err := cl.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold, err = cl.Wait(ctx, cold.ID); err != nil || cold.Status != client.JobDone {
		t.Fatalf("cold job: %+v, %v", cold, err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want a 200 hit", resp.StatusCode)
	}
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%d-byte hit sent with Content-Length %d and Transfer-Encoding %q",
			len(raw), resp.ContentLength, resp.TransferEncoding)
	}
	hit, err := cl.Analyze(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.CacheHit || hit.Report != cold.Report || !bytes.Equal(hit.Result, cold.Result) {
		t.Fatalf("hit (cache_hit %v) does not carry the cold job's report and result", hit.CacheHit)
	}
}
