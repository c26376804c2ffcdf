package cluster

import (
	"bytes"
	"encoding/base64"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"reusetool/internal/cache"
	"reusetool/internal/interp"
	"reusetool/internal/persist"
	"reusetool/internal/reusedist"
	"reusetool/internal/server"
	"reusetool/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// v1ErrorCase is one bad request against the v1 surface.
type v1ErrorCase struct {
	name   string
	method string
	path   string
	body   string
}

// fig2Artifact returns a valid persist artifact of fig2, base64-encoded
// as /v1/analyze's artifact field carries it.
func fig2Artifact(t *testing.T) string {
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
	var buf bytes.Buffer
	if err := persist.Save(&buf, persist.Snapshot(col, prog.Name, nil)); err != nil {
		t.Fatal(err)
	}
	return base64.StdEncoding.EncodeToString(buf.Bytes())
}

// v1ErrorCases lists the bad requests both roles must answer alike:
// the intake rules (body cap, strict decoding) on every POST route,
// request validation, and the job registry's lookups.
func v1ErrorCases(t *testing.T) []v1ErrorCase {
	// One byte past the 16 MiB cap, still valid JSON up to the cut.
	huge := `{"workload":"` + strings.Repeat("a", 16<<20-14) + `"}`
	const training = `"train_params":[{"N":64},{"N":96},{"N":128}]`
	// An inline program whose subscript divides a constant by zero: the
	// parser refuses it (constant folding used to panic in the handler).
	const zeroDivisor = `program p\nparam N 8\narray A f64 [N]\nroutine main file p.f line 1 {\n  for i = 0 .. N-1 {\n    access A[i + 4/0]\n  }\n}\n`
	var cases []v1ErrorCase
	for _, route := range []string{"analyze", "check", "fit", "predict"} {
		path := "/v1/" + route
		// Fit and predict requests name their training bindings.
		spec := ""
		if route == "fit" || route == "predict" {
			spec = "," + training
		}
		cases = append(cases,
			v1ErrorCase{route + "/too-large", "POST", path, huge},
			v1ErrorCase{route + "/unknown-field", "POST", path, `{"workload":"fig2","bogus":1}`},
			v1ErrorCase{route + "/unknown-workload", "POST", path, `{"workload":"no-such-workload"` + spec + `}`},
			v1ErrorCase{route + "/unknown-hierarchy", "POST", path, `{"workload":"fig2","hierarchy":"pentium"` + spec + `}`},
			v1ErrorCase{route + "/malformed-json", "POST", path, `{"workload":`},
			v1ErrorCase{route + "/constant-zero-divisor", "POST", path, `{"program":"` + zeroDivisor + `"` + spec + `}`},
		)
	}
	return append(cases,
		// The result is the artifact's whatever the resolution, so a
		// histres beside it would only split one result across keys.
		v1ErrorCase{"analyze/artifact-histres", "POST", "/v1/analyze", `{"workload":"fig2","artifact":"` + fig2Artifact(t) + `","histres":2}`},
		v1ErrorCase{"fit/unsound", "POST", "/v1/fit", `{"workload":"fig2",` + training + `,"sample_rate":8}`},
		v1ErrorCase{"fit/one-binding", "POST", "/v1/fit", `{"workload":"fig2","train_params":[{"N":64}]}`},
		v1ErrorCase{"predict/sample-rate", "POST", "/v1/predict", `{"workload":"fig2",` + training + `,"sample_rate":8}`},
		v1ErrorCase{"predict/malformed-model-key", "POST", "/v1/predict", `{"model":"xyz","params":{"N":2048}}`},
		v1ErrorCase{"predict/no-model", "POST", "/v1/predict", `{"workload":"fig2",` + training + `,"params":{"N":2048}}`},
		v1ErrorCase{"jobs/bogus-state", "GET", "/v1/jobs?state=bogus", ""},
		v1ErrorCase{"jobs/get-unknown", "GET", "/v1/jobs/nope", ""},
		v1ErrorCase{"jobs/delete-unknown", "DELETE", "/v1/jobs/nope", ""},
	)
}

// TestV1ErrorSurfaceGolden sends the same bad requests to a worker and
// to a coordinator and pins each response's status, Content-Type and
// body bytes in testdata/v1_errors.golden. Run with -update to
// regenerate.
func TestV1ErrorSurfaceGolden(t *testing.T) {
	_, workers, cl := newCluster(t, 1, server.Config{Workers: 1}, Config{})
	roles := []struct{ name, base string }{
		{"worker", workers[0].url()},
		{"coordinator", cl.BaseURL()},
	}
	cases := v1ErrorCases(t)
	var got strings.Builder
	for _, role := range roles {
		for _, tc := range cases {
			req, err := http.NewRequestWithContext(t.Context(), tc.method, role.base+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", role.name, tc.name, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s %s: %v", role.name, tc.name, err)
			}
			fmt.Fprintf(&got, "### %s %s\n%s %s\n%d %s\n%s", role.name, tc.name,
				tc.method, tc.path, resp.StatusCode, resp.Header.Get("Content-Type"), body)
		}
	}

	path := filepath.Join("testdata", "v1_errors.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("v1 error responses drifted from %s (re-run with -update if intended)\n--- got ---\n%s", path, got.String())
	}
}
