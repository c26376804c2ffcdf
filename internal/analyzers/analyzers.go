// Package analyzers is the repository's type-aware static-analysis
// suite: seven invariant-enforcing passes over the fully type-checked
// module, run by cmd/reuselint and gated in CI. It replaces the old
// syntax-only tools/lint walker, whose hard-coded receiver/method table
// silently rotted whenever the hot path was refactored.
//
// The analyzers:
//
//   - determinism: no output, encoding, or hashing in map iteration
//     order — reports and persist streams must be byte-reproducible;
//   - hotpathalloc: no map allocations in functions reachable from
//     //reuse:hotpath roots (the per-access path);
//   - lockcheck: fields annotated "guarded by mu" are only accessed
//     with the mutex held;
//   - ctxpropagate: library code threads context.Context instead of
//     minting context.Background;
//   - deprecated: no use of Deprecated: entry points outside their
//     defining package;
//   - resourceleak: http.Response bodies are closed and time.NewTicker
//     tickers stopped in the function that acquired them;
//   - unused: no exported package-level identifier that nothing in the
//     module (tests included) refers to.
//
// The //reuse:* directive grammar is documented in DESIGN.md §11.
package analyzers

import "reusetool/internal/analyzers/analysis"

// All returns the full suite in a fixed, documented order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		HotPathAlloc,
		LockCheck,
		CtxPropagate,
		Deprecated,
		ResourceLeak,
		Unused,
	}
}
