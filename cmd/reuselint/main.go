// Command reuselint runs the reusetool analyzer suite — determinism,
// hotpathalloc, lockcheck, ctxpropagate, deprecated, resourceleak,
// unused — over the module containing the current directory, with full
// type information.
//
// Usage:
//
//	reuselint [packages]
//
// Package arguments use the familiar ./... forms and only filter which
// packages' findings are reported; the whole module is always loaded,
// because the hot-path analysis needs the cross-package callgraph.
// With no arguments, everything is reported.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"reusetool/internal/analyzers"
	"reusetool/internal/analyzers/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("reuselint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reuselint [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "reuselint: %v\n", err)
		return 2
	}
	match, err := packageFilter(cwd, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "reuselint: %v\n", err)
		return 2
	}

	prog, err := analysis.LoadModule(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "reuselint: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(prog, suite)
	if err != nil {
		fmt.Fprintf(stderr, "reuselint: %v\n", err)
		return 2
	}

	reported := 0
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		if !match(filepath.Dir(pos.Filename)) {
			continue
		}
		fmt.Fprintf(stdout, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
		reported++
	}
	if reported > 0 {
		return 1
	}
	return 0
}

// packageFilter turns ./...-style arguments into a predicate over
// package directories. No arguments (or a bare "./...") means
// everything.
func packageFilter(cwd string, args []string) (func(dir string) bool, error) {
	if len(args) == 0 {
		return func(string) bool { return true }, nil
	}
	type pat struct {
		dir     string
		subtree bool
	}
	var pats []pat
	for _, arg := range args {
		p := pat{dir: arg}
		if p.dir == "..." {
			p.subtree = true
			p.dir = "."
		} else if rest, ok := strings.CutSuffix(p.dir, "/..."); ok {
			p.subtree = true
			p.dir = rest
		}
		if p.dir == "" {
			p.dir = "."
		}
		if !filepath.IsAbs(p.dir) {
			p.dir = filepath.Join(cwd, p.dir)
		}
		p.dir = filepath.Clean(p.dir)
		pats = append(pats, p)
	}
	return func(dir string) bool {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return false
		}
		for _, p := range pats {
			if abs == p.dir {
				return true
			}
			if p.subtree && strings.HasPrefix(abs, p.dir+string(filepath.Separator)) {
				return true
			}
		}
		return false
	}, nil
}
