package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// -update regenerates the golden files under testdata.
var update = flag.Bool("update", false, "rewrite golden files")

// builtinWorkloads names every workload the registry builds.
var builtinWorkloads = []string{
	"fig1a", "fig1b", "fig2", "stream", "stencil", "transpose",
	"sweep3d", "sweep3d-blk6", "sweep3d-blk6ic", "gtc", "gtc-tuned",
}

// compareGolden checks got against the golden file at path, or rewrites
// the file under -update.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s (run go test -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("%s: output drifted from golden (re-run with -update if intended)\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestBuildWorkloadAllNames(t *testing.T) {
	for _, name := range builtinWorkloads {
		prog, _, err := buildWorkload(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if prog == nil {
			t.Errorf("%s: nil program", name)
		}
	}
	if _, _, err := buildWorkload("nope"); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown workload not rejected: %v", err)
	}
}

func TestGTCTunedHasAllTransforms(t *testing.T) {
	prog, _, err := buildWorkload("gtc-tuned")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prog.Name, "pushi") {
		t.Errorf("gtc-tuned program name = %q, want final variant", prog.Name)
	}
}

func TestCheckParamsRejectsUnknown(t *testing.T) {
	prog, _, err := buildWorkload("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkParams(prog, map[string]int64{"N": 100}); err != nil {
		t.Errorf("valid param rejected: %v", err)
	}
	err = checkParams(prog, map[string]int64{"N": 100, "BOGUS": 1})
	if err == nil {
		t.Fatal("unknown param accepted")
	}
	for _, want := range []string{"BOGUS", "M, N"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestResolveMode(t *testing.T) {
	set := func(flags ...string) map[string]bool {
		m := map[string]bool{}
		for _, f := range flags {
			m[f] = true
		}
		return m
	}
	cases := []struct {
		name    string
		set     map[string]bool
		want    string
		wantErr []string // substrings the error must mention
	}{
		{name: "default", set: set(), want: modeDynamic},
		{name: "dynamic extras", set: set("workload", "level", "xml", "save", "dump-trace", "cct", "compare", "parallel"), want: modeDynamic},
		{name: "static", set: set("static"), want: modeStatic},
		{name: "static xml ok", set: set("static", "xml"), want: modeStatic},
		{name: "load", set: set("load"), want: modeSaved},
		{name: "trace", set: set("from-trace", "level", "xml"), want: modeTrace},
		{name: "validate", set: set("static-validate", "level"), want: modeValidate},
		{name: "dump program", set: set("dump-program", "workload"), want: modeDumpProgram},
		{name: "check", set: set("check"), want: modeCheck},
		{name: "check workload", set: set("check", "workload"), want: modeCheck},

		{name: "two selectors", set: set("static", "load"),
			wantErr: []string{"-static", "-load", "choose one"}},
		{name: "three selectors", set: set("static", "load", "from-trace"),
			wantErr: []string{"-static", "-load", "-from-trace"}},
		{name: "static save", set: set("static", "save"),
			wantErr: []string{"-static", "-save"}},
		{name: "static all exec flags", set: set("static", "save", "dump-trace", "cct"),
			wantErr: []string{"-save", "-dump-trace", "-cct"}},
		{name: "load save", set: set("load", "save"),
			wantErr: []string{"-load", "-save"}},
		{name: "trace workload", set: set("from-trace", "workload"),
			wantErr: []string{"-from-trace", "-workload"}},
		{name: "trace program param", set: set("from-trace", "program", "param"),
			wantErr: []string{"-program", "-param"}},
		{name: "validate xml", set: set("static-validate", "xml"),
			wantErr: []string{"-static-validate", "-xml"}},
		{name: "dump program xml", set: set("dump-program", "xml"),
			wantErr: []string{"-dump-program", "-xml"}},
		{name: "check xml", set: set("check", "xml"),
			wantErr: []string{"-check", "-xml"}},
		{name: "check static", set: set("check", "static"),
			wantErr: []string{"-check", "-static", "choose one"}},

		{name: "check json", set: set("check", "json"), want: modeCheck},
		{name: "check notes", set: set("check", "json", "notes"), want: modeCheck},
		{name: "json without check", set: set("json"),
			wantErr: []string{"-json", "another mode only"}},
		{name: "notes without check", set: set("notes", "workload"),
			wantErr: []string{"-notes", "another mode only"}},
		{name: "static json", set: set("static", "json"),
			wantErr: []string{"-static", "-json"}},
		{name: "load notes", set: set("load", "notes"),
			wantErr: []string{"-load", "-notes"}},

		{name: "fit", set: set("fit", "train", "workload"), want: modeFit},
		{name: "fit model", set: set("fit", "train", "model"), want: modeFit},
		{name: "predict", set: set("predict", "train", "param", "level"), want: modePredict},
		{name: "predict model", set: set("predict", "model", "param"), want: modePredict},
		{name: "predict sampled", set: set("predict", "train", "sample-rate"), want: modePredict},
		{name: "train without fit", set: set("train"),
			wantErr: []string{"-train", "another mode only"}},
		{name: "fit and predict", set: set("fit", "predict"),
			wantErr: []string{"-fit", "-predict", "choose one"}},
		{name: "fit param", set: set("fit", "train", "param"),
			wantErr: []string{"-fit", "-param"}},
		{name: "fit xml", set: set("fit", "train", "xml"),
			wantErr: []string{"-fit", "-xml"}},
		{name: "predict save", set: set("predict", "train", "save"),
			wantErr: []string{"-predict", "-save"}},
		{name: "fit static", set: set("fit", "static"),
			wantErr: []string{"-fit", "-static", "choose one"}},
		{name: "check train", set: set("check", "train"),
			wantErr: []string{"-check", "-train"}},

		// -parallel fans the event stream out in-process; a mode that
		// runs none refuses it, and so do -fit and -predict, whose
		// training runs always fan out (-remote is dropped from the set
		// before resolveMode when either is given).
		{name: "static parallel", set: set("static", "parallel"),
			wantErr: []string{"-static", "-parallel"}},
		{name: "load parallel", set: set("load", "parallel"),
			wantErr: []string{"-load", "-parallel"}},
		{name: "dump program parallel", set: set("dump-program", "parallel"),
			wantErr: []string{"-dump-program", "-parallel"}},
		{name: "check parallel", set: set("check", "parallel"),
			wantErr: []string{"-check", "-parallel"}},
		{name: "remote parallel", set: set("remote", "parallel"),
			wantErr: []string{"-remote", "-parallel"}},
		{name: "trace parallel", set: set("from-trace", "parallel"), want: modeTrace},
		{name: "validate parallel", set: set("static-validate", "parallel"), want: modeValidate},
		{name: "fit parallel", set: set("fit", "train", "parallel"),
			wantErr: []string{"-fit", "-parallel"}},
		{name: "predict parallel", set: set("predict", "train", "parallel"),
			wantErr: []string{"-predict", "-parallel"}},
		{name: "predict model parallel", set: set("predict", "model", "param", "parallel"),
			wantErr: []string{"-predict", "-parallel"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mode, err := resolveMode(tc.set)
			if len(tc.wantErr) > 0 {
				if err == nil {
					t.Fatalf("got mode %q, want error", mode)
				}
				for _, want := range tc.wantErr {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not mention %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if mode != tc.want {
				t.Errorf("mode = %q, want %q", mode, tc.want)
			}
		})
	}
}

func TestParamList(t *testing.T) {
	p := paramList{}
	if err := p.Set("N=42"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("micell=5"); err != nil {
		t.Fatal(err)
	}
	if p["N"] != 42 || p["micell"] != 5 {
		t.Errorf("params = %v", p)
	}
	if err := p.Set("garbage"); err == nil {
		t.Error("missing '=' should fail")
	}
	if err := p.Set("N=abc"); err == nil {
		t.Error("non-integer should fail")
	}
	if s := p.String(); !strings.Contains(s, "42") {
		t.Errorf("String = %q", s)
	}
}

// checkGolden runs the checker for one target and compares the exact
// output (including notes, the finding count, and the exit code)
// against testdata/check/<name>.golden. Run with -update to
// regenerate.
func checkGolden(t *testing.T, name string, files []string, workload string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := runCheck(&out, &errw, files, workload, "", nil, checkConfig{notes: true})
	if code == 2 {
		t.Fatalf("%s: usage error:\n%s", name, errw.String())
	}
	got := fmt.Sprintf("exit %d\n%s%s", code, out.String(), errw.String())
	compareGolden(t, filepath.Join("testdata", "check", name+".golden"), got)
}

// TestRunCheckGoldenPrograms pins the checker's byte-exact output for
// every shipped .loop program: the diagnostics may legitimately
// include findings (ranked opportunities), so the goldens pin both the
// text and the exit code instead of demanding exit 0.
func TestRunCheckGoldenPrograms(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "programs", "*.loop"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no .loop programs found: %v", err)
	}
	sort.Strings(files)
	for _, f := range files {
		name := strings.TrimSuffix(filepath.Base(f), ".loop")
		t.Run(name, func(t *testing.T) {
			checkGolden(t, name, []string{f}, "")
		})
	}
}

// TestRunCheckGoldenWorkloads pins the checker output for every
// built-in workload, including the predicted miss deltas and legality
// verdicts on the paper's case studies (fig1a, fig2, stencil,
// transpose, sweep3d).
func TestRunCheckGoldenWorkloads(t *testing.T) {
	for _, w := range builtinWorkloads {
		t.Run(w, func(t *testing.T) {
			checkGolden(t, "workload-"+w, nil, w)
		})
	}
}

// TestRunCheckJSON: the -json document decodes, counts findings
// consistently, and stays sorted by file:line:code.
func TestRunCheckJSON(t *testing.T) {
	var out, errw bytes.Buffer
	path := filepath.Join("..", "..", "programs", "matmul.loop")
	code := runCheck(&out, &errw, []string{path}, "", "", nil, checkConfig{json: true})
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (matmul has ranked opportunities)\n%s", code, errw.String())
	}
	var doc checkOutput
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("decode -json output: %v\n%s", err, out.String())
	}
	if len(doc.Diagnostics) == 0 {
		t.Fatal("no diagnostics in JSON document")
	}
	n := 0
	for _, d := range doc.Diagnostics {
		if d.Severity.String() != "note" {
			n++
		}
	}
	if n != doc.Findings {
		t.Errorf("findings = %d, but %d non-note diagnostics", doc.Findings, n)
	}
	for i := 1; i < len(doc.Diagnostics); i++ {
		a, b := doc.Diagnostics[i-1], doc.Diagnostics[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %s:%d after %s:%d", b.File, b.Line, a.File, a.Line)
		}
	}
	for _, d := range doc.Diagnostics {
		if d.Code == "redundant-region" && d.Legality == "" {
			t.Errorf("opportunity %s:%d has no legality verdict", d.File, d.Line)
		}
	}
}

// TestRunCheckFindings: a program with an unused parameter and a
// provably empty loop exits 1 with file:line diagnostics.
func TestRunCheckFindings(t *testing.T) {
	src := `program bad
param N 8
param unused 3
array A f64 [N]

routine main file bad.f line 1 {
  for i = 0 .. N-1 line 2 {
    access A[i]
  }
  for j = 5 .. 2 line 5 {
    access A[j]
  }
}
`
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.loop")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	code := runCheck(&out, &errw, []string{path}, "", "", nil, checkConfig{})
	if code != 1 {
		t.Fatalf("exit = %d, want 1\n%s%s", code, out.String(), errw.String())
	}
	got := out.String()
	for _, want := range []string{"unused-param", `"unused"`, "empty-loop", path + ":"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRunCheckParseError: a malformed file exits 2.
func TestRunCheckParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.loop")
	if err := os.WriteFile(path, []byte("for = {"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	if code := runCheck(&out, &errw, []string{path}, "", "", nil, checkConfig{}); code != 2 {
		t.Fatalf("exit = %d, want 2\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "broken.loop") {
		t.Errorf("parse error %q does not carry the file name", errw.String())
	}
}
