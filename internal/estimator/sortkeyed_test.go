package estimator

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// byKey is the reference comparator: negative exactly when a.key < b.key,
// NaN included, so slices.SortFunc(·, byKey) runs the template sortKeyed
// was specialised from and must match swap for swap.
func byKey(a, b keyed) int {
	if a.key < b.key {
		return -1
	}
	if a.key > b.key {
		return 1
	}
	return 0
}

// keyedOf returns keys as rows whose idx is their starting position, so
// the idx column after a sort is the sort's permutation.
func keyedOf(keys []float64) []keyed {
	out := make([]keyed, len(keys))
	for i, k := range keys {
		out[i] = keyed{k, i}
	}
	return out
}

// checkSameAsStdlib sorts keys with sortKeyed and with slices.SortFunc and
// fails unless both leave the same permutation.
func checkSameAsStdlib(t *testing.T, pattern string, keys []float64) {
	t.Helper()
	got, want := keyedOf(keys), keyedOf(keys)
	sortKeyed(got)
	slices.SortFunc(want, byKey)
	for i := range got {
		if got[i].idx != want[i].idx {
			t.Fatalf("%s, n=%d: position %d holds row %d, slices.SortFunc put row %d there", pattern, len(keys), i, got[i].idx, want[i].idx)
		}
	}
}

// TestSortKeyedMatchesStdlib checks that sortKeyed leaves the standard
// library's permutation, ties included, on inputs shaped to reach each
// branch of pdqsort: insertion sort (n <= 12), partialInsertionSort on
// nearly sorted runs, reverseRange on descending ones, partitionEqual on
// heavy duplicates, and breakPatterns after unbalanced partitions.
func TestSortKeyedMatchesStdlib(t *testing.T) {
	patterns := map[string]func(rng *rand.Rand, n int) []float64{
		"random": func(rng *rand.Rand, n int) []float64 {
			return fill(n, func(int) float64 { return rng.Float64() })
		},
		"5-valued": func(rng *rand.Rand, n int) []float64 {
			return fill(n, func(int) float64 { return float64(rng.Intn(5)) })
		},
		"constant": func(_ *rand.Rand, n int) []float64 {
			return fill(n, func(int) float64 { return 7 })
		},
		"sorted": func(_ *rand.Rand, n int) []float64 {
			return fill(n, func(i int) float64 { return float64(i) })
		},
		"reversed": func(_ *rand.Rand, n int) []float64 {
			return fill(n, func(i int) float64 { return float64(n - i) })
		},
		"sorted-reversed-tail": func(_ *rand.Rand, n int) []float64 {
			return fill(n, func(i int) float64 {
				if tail := n - n/8; i >= tail {
					return float64(n + tail - i)
				}
				return float64(i)
			})
		},
		"organ-pipe": func(_ *rand.Rand, n int) []float64 {
			return fill(n, func(i int) float64 { return float64(min(i, n-1-i)) })
		},
		"sawtooth": func(_ *rand.Rand, n int) []float64 {
			return fill(n, func(i int) float64 { return float64(i % 17) })
		},
		"one-swap": func(rng *rand.Rand, n int) []float64 {
			keys := fill(n, func(i int) float64 { return float64(i) })
			if n >= 2 {
				i, j := rng.Intn(n), rng.Intn(n)
				keys[i], keys[j] = keys[j], keys[i]
			}
			return keys
		},
	}
	for name, gen := range patterns {
		for _, n := range []int{0, 1, 2, 12, 13, 49, 50, 51, 1000, 11520} {
			checkSameAsStdlib(t, name, gen(rand.New(rand.NewSource(int64(n))), n))
		}
	}
}

func fill(n int, f func(i int) float64) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = f(i)
	}
	return keys
}

// FuzzSortKeyed checks the same property on keys made from the fuzzer's
// bytes: eight values and NaN, so nearly every key has ties.
func FuzzSortKeyed(f *testing.F) {
	f.Add([]byte{3, 1, 2})
	f.Add([]byte("the split search owns its pdqsort, and its tie order"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		keys := make([]float64, len(b))
		for i, c := range b {
			keys[i] = float64(c % 8)
			if c == 0xff {
				keys[i] = math.NaN()
			}
		}
		checkSameAsStdlib(t, "fuzz", keys)
	})
}

// TestSortKeyedHeapsort drives the limit-0 heapsort fallback directly: no
// input can be relied on to exhaust pdqsort's bad-pivot budget.
func TestSortKeyedHeapsort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := fill(1000, func(int) float64 { return float64(rng.Intn(50)) })
	data := keyedOf(keys)
	pdqsortKeyed(data, 0, len(data), 0)
	if !slices.IsSortedFunc(data, byKey) {
		t.Fatal("heapsort left the rows unsorted")
	}
	seen := make([]bool, len(data))
	for _, e := range data {
		if seen[e.idx] || e.key != keys[e.idx] {
			t.Fatalf("row %d duplicated or its key changed: not a permutation", e.idx)
		}
		seen[e.idx] = true
	}
}
