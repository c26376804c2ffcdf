package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"reusetool/internal/server"
	"reusetool/pkg/client"
)

// setCounters stores base, base+1, ... into m's exported counters in
// field order.
func setCounters(m any, base uint64) {
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !v.Type().Field(i).IsExported() {
			continue
		}
		if c, ok := v.Field(i).Addr().Interface().(*atomic.Uint64); ok {
			c.Store(base)
			base++
		}
	}
}

// uptimeSample matches either role's uptime sample, the one value a
// render cannot fix.
var uptimeSample = regexp.MustCompile(`(?m)^(reusetoold(?:_cluster)?_uptime_seconds) \S+$`)

// TestMetricsTextGolden pins both roles' /metrics text byte for byte
// in testdata/metrics.golden: every counter and gauge at a fixed value,
// and the uptime sample masked. The values include gauges of a million
// and more, which %g prints in exponent form and %d does not. Run with
// -update to regenerate.
func TestMetricsTextGolden(t *testing.T) {
	var got strings.Builder
	render := func(title string, write func(io.Writer)) {
		var b bytes.Buffer
		write(&b)
		fmt.Fprintf(&got, "### %s\n%s", title, uptimeSample.ReplaceAllString(b.String(), "$1 <masked>"))
	}

	wm := server.NewMetrics()
	setCounters(wm, 1)
	wm.AnalyzeNanos.Store(1234567890)
	wm.PredictNanos.Store(2500)
	wm.SampledBlocks.Store(1234567)
	wm.SampleRate.Store(8)
	render("worker", func(w io.Writer) {
		wm.WriteText(w, server.Gauges{QueueDepth: 3, RunningJobs: 2, CacheEntries: 1000000, WriteBehindDepth: 1, Draining: true})
	})
	render("worker, idle", func(w io.Writer) { server.NewMetrics().WriteText(w, server.Gauges{}) })

	cm := NewMetrics()
	setCounters(cm, 101)
	render("coordinator", func(w io.Writer) {
		cm.WriteText(w, []NodeGauge{
			{Node: "http://127.0.0.1:9002", Healthy: false, Inflight: 7},
			{Node: "http://127.0.0.1:9001", Healthy: true, Inflight: 1234567},
			{Node: "http://127.0.0.1:9003", Healthy: true},
		})
	})
	render("coordinator, no nodes", func(w io.Writer) { NewMetrics().WriteText(w, nil) })

	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to regenerate)", err)
	}
	if got.String() != string(want) {
		t.Errorf("/metrics text drifted from %s (re-run with -update if intended)\n--- got ---\n%s", path, got.String())
	}
}

// TestMetricsRoutes: both roles serve /metrics as the exposition's
// content type, with the text their Metrics.WriteText renders.
func TestMetricsRoutes(t *testing.T) {
	c, workers, cl := newCluster(t, 1, server.Config{Workers: 1}, Config{})
	for _, role := range []struct {
		name, base string
		want       func(io.Writer)
	}{
		{"worker", workers[0].url(), func(w io.Writer) { workers[0].srv.Metrics().WriteText(w, server.Gauges{}) }},
		{"coordinator", cl.BaseURL(), func(w io.Writer) {
			c.Metrics().WriteText(w, []NodeGauge{{Node: workers[0].url(), Healthy: true}})
		}},
	} {
		resp, err := http.Get(role.base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/plain; version=0.0.4" {
			t.Fatalf("%s: status %d, Content-Type %q", role.name, resp.StatusCode, ct)
		}
		var want bytes.Buffer
		role.want(&want)
		if g, w := uptimeSample.ReplaceAllString(string(body), "$1 <masked>"), uptimeSample.ReplaceAllString(want.String(), "$1 <masked>"); g != w {
			t.Errorf("%s /metrics:\n%s\nwant:\n%s", role.name, g, w)
		}
	}
}

// fetch GETs or DELETEs path and returns the status, the Content-Type
// and the body.
func fetch(t *testing.T, method, url string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength >= 0 && resp.ContentLength != int64(len(body)) {
		t.Fatalf("%s %s: Content-Length %d for a %d-byte body", method, url, resp.ContentLength, len(body))
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// requireBytes requires body to be exactly what write writes.
func requireBytes(t *testing.T, what string, body []byte, write func(http.ResponseWriter)) {
	t.Helper()
	rec := httptest.NewRecorder()
	write(rec)
	if !bytes.Equal(body, rec.Body.Bytes()) {
		t.Fatalf("%s:\n%s\nwant:\n%s", what, body, rec.Body.Bytes())
	}
}

// TestJobRoutesSuccessPath drives the job routes of both roles past a
// finished job: GET /v1/jobs?state=done lists the jobs' summaries in
// submission order without their payloads, GET /v1/jobs/{id} returns a
// finished job's document with them, and DELETE of a finished job
// answers 409 conflict. Every body is the bytes the shared writers
// write for what it decodes to.
func TestJobRoutesSuccessPath(t *testing.T) {
	_, workers, ccl := newCluster(t, 1, server.Config{Workers: 1}, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	wcl := client.New(workers[0].url())
	wcl.PollInterval = 10 * time.Millisecond
	for _, role := range []struct {
		name string
		cl   *client.Client
	}{{"worker", wcl}, {"coordinator", ccl}} {
		var ids []string
		for _, req := range []client.AnalyzeRequest{{Workload: "fig2"}, {Workload: "fig1a"}, {Workload: "fig2", Mode: "static"}} {
			job, err := role.cl.Analyze(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if job, err = role.cl.Wait(ctx, job.ID); err != nil || job.Status != client.JobDone {
				t.Fatalf("%s %+v: %v", role.name, req, err)
			}
			ids = append(ids, job.ID)
		}
		base := role.cl.BaseURL()

		status, ct, body := fetch(t, http.MethodGet, base+"/v1/jobs?state=done")
		if status != http.StatusOK || ct != "application/json" {
			t.Fatalf("%s list: status %d, Content-Type %q", role.name, status, ct)
		}
		var list client.JobList
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		requireBytes(t, role.name+" job list", body, func(w http.ResponseWriter) { server.WriteJSON(w, http.StatusOK, list) })
		if bytes.Contains(body, []byte(`"report"`)) || bytes.Contains(body, []byte(`"result"`)) {
			t.Fatalf("%s list carries payloads:\n%s", role.name, body)
		}
		if len(list.Jobs) != len(ids) {
			t.Fatalf("%s list holds %d jobs, want %d", role.name, len(list.Jobs), len(ids))
		}
		for i, id := range ids {
			summary := list.Jobs[i]
			if summary.ID != id {
				t.Fatalf("%s list holds %s at %d, want %s", role.name, summary.ID, i, id)
			}
			status, ct, body := fetch(t, http.MethodGet, base+"/v1/jobs/"+id)
			if status != http.StatusOK || ct != "application/json" {
				t.Fatalf("%s GET %s: status %d, Content-Type %q", role.name, id, status, ct)
			}
			var doc client.Job
			if err := json.Unmarshal(body, &doc); err != nil {
				t.Fatal(err)
			}
			requireBytes(t, role.name+" job "+id, body, func(w http.ResponseWriter) { server.WriteJob(w, http.StatusOK, &doc) })
			if doc.Status != client.JobDone || doc.Report == "" || len(doc.Result) == 0 || doc.Submitted == "" || doc.Finished == "" {
				t.Fatalf("%s job %s: incomplete document %+v", role.name, id, doc)
			}
			doc.Report, doc.Result = "", nil
			if !reflect.DeepEqual(summary, doc) {
				t.Fatalf("%s job %s: summary %+v, document %+v", role.name, id, summary, doc)
			}

			status, ct, body = fetch(t, http.MethodDelete, base+"/v1/jobs/"+id)
			if status != http.StatusConflict || ct != "application/json" {
				t.Fatalf("%s DELETE %s: status %d, Content-Type %q", role.name, id, status, ct)
			}
			requireBytes(t, role.name+" DELETE "+id, body, func(w http.ResponseWriter) {
				server.WriteError(w, http.StatusConflict, client.CodeConflict, "job %s is not cancelable", id)
			})
		}

		status, _, body = fetch(t, http.MethodGet, base+"/v1/jobs?state=running")
		if want := "{\n  \"api_version\": \"v1\",\n  \"jobs\": []\n}\n"; status != http.StatusOK || string(body) != want {
			t.Fatalf("%s list of running jobs: status %d, body %q, want %q", role.name, status, body, want)
		}
	}
}
