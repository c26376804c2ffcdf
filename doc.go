// Package repro is a Go reproduction of "Pinpointing and Exploiting
// Opportunities for Enhancing Data Reuse" (Marin & Mellor-Crummey, ISPASS
// 2008): a reuse-distance-based data-locality analysis toolkit with
// fine-grain attribution of cache misses to reuse patterns, static
// cache-line fragmentation analysis, transformation advice, and full
// reproductions of the paper's Sweep3D and GTC case studies.
//
// The library lives under internal/ (internal/core is the façade);
// cmd/reusetool and cmd/experiments are the command-line entry points;
// examples/ holds runnable walkthroughs; bench_test.go regenerates every
// table and figure of the paper's evaluation.
//
// The codebase's own invariants — deterministic output, an
// allocation-free per-access path, mutex and context discipline, no
// unused exported identifiers — are
// enforced by the type-aware analyzer suite in internal/analyzers,
// driven by cmd/reuselint and gated in CI (DESIGN.md §11).
package repro
