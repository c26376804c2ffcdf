package staticreuse

import (
	"math/rand"
	"sort"
	"testing"
)

// TestByRecencyMatchesStableSort: the index permutation visits matches
// in exactly the order sort.SliceStable leaves them in when it sorts the
// structs by timeAgo ascending, then srcOrder descending. The keys come
// from tiny ranges, so most comparisons tie and enumeration order
// decides.
func TestByRecencyMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		matches := make([]match, rng.Intn(300))
		for i := range matches {
			matches[i] = match{
				timeAgo:  float64(rng.Intn(3)) / 2,
				srcOrder: rng.Intn(3),
				dist:     uint64(i), // identifies the match after the reference sort
			}
		}
		order := make([]int32, len(matches))
		for i := range order {
			order[i] = int32(i)
		}
		byRecency(matches, order)

		ref := append([]match(nil), matches...)
		sort.SliceStable(ref, func(i, j int) bool {
			if ref[i].timeAgo != ref[j].timeAgo {
				return ref[i].timeAgo < ref[j].timeAgo
			}
			return ref[i].srcOrder > ref[j].srcOrder
		})
		for i, mi := range order {
			if uint64(mi) != ref[i].dist {
				t.Fatalf("trial %d: position %d holds match %d, sort.SliceStable puts %d there", trial, i, mi, ref[i].dist)
			}
		}
	}
}

// TestOffsetsWithinMatchesScan: for every lattice of block offsets a
// reference can have, every element size and every residual a match can
// carry, the index range the positions loop visits holds exactly the
// offsets the full scan would keep.
func TestOffsetsWithinMatchesScan(t *testing.T) {
	const bs = 64
	for _, elem := range []int64{1, 4, 8} {
		for step := int64(1); step <= bs; step++ {
			if bs%step != 0 {
				continue // a lattice step is a gcd with the block size, or an element size below it
			}
			for first := int64(0); first < step; first++ {
				pos := offsets{first: first, step: step, n: int(ceilDiv(bs-first, step))}
				var xs []int64
				for x := first; x < bs; x += step {
					xs = append(xs, x)
				}
				if len(xs) != pos.n {
					t.Fatalf("step %d first %d: %d offsets, lattice says %d", step, first, len(xs), pos.n)
				}
				for residual := int64(-bs + 1); residual < bs; residual++ {
					lo, hi := sameBlock(residual, elem, bs)
					i, j := pos.within(lo, hi)
					var want []int
					for k, x := range xs {
						if x >= lo && x < hi {
							want = append(want, k)
						}
					}
					if len(want) != j-i || (len(want) > 0 && want[0] != i) {
						t.Fatalf("elem %d step %d first %d residual %d: range [%d, %d), scan keeps %v",
							elem, step, first, residual, i, j, want)
					}
				}
			}
		}
	}
}
