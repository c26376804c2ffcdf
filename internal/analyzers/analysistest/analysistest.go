// Package analysistest runs an analyzer over a GOPATH-style testdata
// tree and checks its diagnostics against expectations written in the
// sources as "// want" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest:
//
//	for k := range m { // want `map order`
//
// Each quoted string is a regular expression that must match the
// message of one diagnostic reported on that line; diagnostics without
// a matching expectation, and expectations without a matching
// diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"reusetool/internal/analyzers/analysis"
)

// wantRE captures the expectation list of a single want comment.
var wantRE = regexp.MustCompile(`// want (.*)$`)

// quotedRE matches one expectation: a double-quoted Go string or a
// backquoted raw string.
var quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	met  bool
}

// Run loads the named packages from srcRoot, runs the analyzer, and
// reports mismatches through t. It returns the diagnostics for callers
// that want to assert more.
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, paths ...string) []analysis.Diagnostic {
	t.Helper()
	prog, err := analysis.LoadTree(srcRoot, paths...)
	if err != nil {
		t.Fatalf("loading %s %v: %v", srcRoot, paths, err)
	}
	diags, err := analysis.Run(prog, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	// Collect expectations from the files of the requested packages.
	want := collectWant(t, prog, paths)

	// Match diagnostics to expectations by (file, line).
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		matched := false
		for _, w := range want {
			if w.met || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range want {
		if !w.met {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return diags
}

func collectWant(t *testing.T, prog *analysis.Program, paths []string) []*expectation {
	t.Helper()
	var want []*expectation
	for _, path := range paths {
		pkg := prog.Package(path)
		if pkg == nil {
			t.Fatalf("package %s not loaded", path)
		}
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, q := range quotedRE.FindAllString(m[1], -1) {
						pat, err := unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						want = append(want, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}
	return want
}

func unquote(q string) (string, error) {
	if strings.HasPrefix(q, "`") {
		if len(q) < 2 || !strings.HasSuffix(q, "`") {
			return "", fmt.Errorf("unterminated raw string")
		}
		return q[1 : len(q)-1], nil
	}
	return strconv.Unquote(q)
}
