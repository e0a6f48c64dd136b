package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// fastest is the statistic every guarded timing reports: the minimum of
// a fixed number of repetitions. Interference on a shared box only ever
// adds time, and on the reference box it comes in episodes that at
// times cover three quarters of a run, so no fixed quantile stays
// inside the undisturbed population; the fastest repetition does, as
// long as one repetition fits between two episodes (README.md has the
// figures, and says what the minimum cannot see).
func fastest(xs []float64) float64 { return quantile(xs, 0) }

// seconds converts a duration sample to float seconds with all digits.
func seconds(d time.Duration) float64 { return float64(d) / float64(time.Second) }

// millis converts a duration sample to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rhs fills b with seeded uniform values in [-1, 1). Never the all-ones
// vector: ones is an eigenvector of csr.Laplacian2D (row sums are 1), so
// CG on it "converges" in one iteration and measures nothing.
func rhs(rng *rand.Rand, b []float64) {
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
}
