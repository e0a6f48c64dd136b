// Package par provides the small goroutine-parallel building blocks used
// by the protected solver kernels. Work is split into contiguous ranges
// whose boundaries respect ECC codeword alignment, so no two workers ever
// touch the same codeword — the property that makes buffered group writes
// race-free (paper section VI-C).
//
// Parallel execution runs on a persistent, GOMAXPROCS-sized worker pool:
// Run parks the work on resident goroutines instead of spawning fresh
// ones, and the caller claims ranges alongside the pool, so dispatch is
// allocation-free in the steady state and degrades gracefully to the
// caller doing everything when the pool is busy.
package par

import (
	"fmt"
	"runtime"
)

// Ranges splits [0,n) into at most workers contiguous half-open ranges
// whose interior boundaries are multiples of align. It returns fewer
// ranges when n is too small to give every worker aligned work. align and
// workers are clamped to at least 1, and workers additionally to
// runtime.GOMAXPROCS(0): more ranges than runnable threads only add
// dispatch overhead, never parallelism. Callers that need a fixed
// decomposition independent of the host (shard layouts) must use
// Partition instead.
func Ranges(n, workers, align int) [][2]int {
	if max := runtime.GOMAXPROCS(0); workers > max {
		workers = max
	}
	return Partition(n, workers, align)
}

// Partition splits [0,n) into at most parts contiguous half-open ranges
// whose interior boundaries are multiples of align, independent of the
// host's processor count. It is the layout-defining cousin of Ranges:
// shard decompositions derive from it so the operator they build is
// reproducible across machines. align and parts are clamped to at least
// 1. The result is allocated at exact capacity in one shot.
func Partition(n, parts, align int) [][2]int {
	if align < 1 {
		align = 1
	}
	if parts < 1 {
		parts = 1
	}
	if n <= 0 {
		return nil
	}
	chunk := (n + parts - 1) / parts
	chunk = (chunk + align - 1) / align * align
	out := make([][2]int, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// Run executes fn over every range, in parallel when more than one range
// is given, and returns the error from the lowest-indexed failing range.
// Multi-range work is dispatched to the resident worker pool; the calling
// goroutine claims ranges too, so Run completes even when every pool
// worker is busy (including nested Run from inside fn) and never blocks
// waiting for a free worker. In a multi-range Run a range that panics
// fails with a *PanicError, whichever goroutine ran it; a single range
// runs inline on the caller, and its panic is the caller's.
func Run(ranges [][2]int, fn func(lo, hi int) error) error {
	if len(ranges) == 0 {
		return nil
	}
	if len(ranges) == 1 {
		return fn(ranges[0][0], ranges[0][1])
	}
	return sharedPool().run(ranges, fn)
}

// ForEach runs fn over [0,n) split across workers with the given
// alignment: Run over Ranges, except that an empty or one-range split
// is not built and a one-range split runs fn(0, n) inline. Ranges
// returns one range exactly when its clamped worker count is 1 or align
// covers n: two or more workers make the first range shorter than n
// unless it is one aligned unit.
func ForEach(n, workers, align int, fn func(lo, hi int) error) error {
	switch {
	case n <= 0:
		return nil
	case min(workers, runtime.GOMAXPROCS(0)) <= 1 || align >= n:
		return fn(0, n)
	}
	return Run(Ranges(n, workers, align), fn)
}

// Stats reports the resident pool's health for the service metrics:
// the number of parked worker goroutines and the cumulative count of
// multi-range batches dispatched through the pool. Workers is zero until
// the first parallel Run forces the pool up.
func Stats() (workers int, dispatches uint64) {
	return sharedPool().stats()
}

// PanicError is the error of a range that panicked in a multi-range Run:
// the value passed to panic and the stack of the goroutine that ran it.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: range panicked: %v\n%s", e.Value, e.Stack)
}
