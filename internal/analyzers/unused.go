package analyzers

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"

	"reusetool/internal/analyzers/analysis"
)

// Unused flags exported package-level functions, types, variables and
// constants of non-main packages that nothing in the module refers to,
// so dead surface does not accumulate beside its replacements.
//
// An identifier counts as used when any loaded package, its own
// included, refers to it with type information, or when any _test.go
// file in a loaded package's directory contains an identifier of the
// same name. The loader skips test files, so they are only parsed;
// matching them by name can miss dead code but never flags live code.
// Methods and struct fields are out of scope: interface satisfaction
// makes their liveness hard to judge.
var Unused = &analysis.Analyzer{
	Name: "unused",
	Doc:  "no exported package-level identifier that nothing in the module uses",
	Run:  runUnused,
}

func runUnused(pass *analysis.Pass) error {
	used := map[types.Object]bool{}
	for _, pkg := range pass.Prog.Packages {
		for _, obj := range pkg.Info.Uses {
			used[obj] = true
		}
	}
	inTests, err := testIdents(pass.Prog)
	if err != nil {
		return err
	}
	for _, pkg := range pass.Prog.Packages {
		if pkg.Name() == "main" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || used[obj] || inTests[name] {
				continue
			}
			pass.Reportf(obj.Pos(), "exported %s %s is never used in the module; delete it",
				objKind(obj), qualifiedName(obj))
		}
	}
	return nil
}

// testIdents parses the _test.go files beside every loaded package and
// returns the set of identifier names they contain.
func testIdents(prog *analysis.Program) (map[string]bool, error) {
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, pkg := range prog.Packages {
		entries, err := os.ReadDir(pkg.Dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					names[id.Name] = true
				}
				return true
			})
		}
	}
	return names, nil
}
