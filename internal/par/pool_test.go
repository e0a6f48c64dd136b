package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// manyRanges hand-builds a multi-range slice so dispatch is exercised
// even on hosts where GOMAXPROCS collapses Ranges to a single range
// (Run never clamps: it executes whatever decomposition it is given).
func manyRanges(n, parts int) [][2]int {
	rs := make([][2]int, 0, parts)
	chunk := (n + parts - 1) / parts
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		rs = append(rs, [2]int{lo, hi})
	}
	return rs
}

func TestPartitionIgnoresGOMAXPROCS(t *testing.T) {
	// Partition defines layouts (shard bands, preconditioner blocks) and
	// must be reproducible across machines, so it splits to the
	// requested count no matter how many processors this host has.
	rs := Partition(100, 7, 8)
	if len(rs) < 2 {
		t.Fatalf("Partition collapsed to %d ranges: %v", len(rs), rs)
	}
	for i, r := range rs {
		if i < len(rs)-1 && r[1]%8 != 0 {
			t.Fatalf("interior boundary %d not aligned: %v", r[1], rs)
		}
	}
	// Ranges with the same arguments may not exceed the host's
	// processor count: extra ranges cost dispatch without parallelism.
	if rs := Ranges(100, 7, 1); len(rs) > runtime.GOMAXPROCS(0) {
		t.Fatalf("Ranges exceeded GOMAXPROCS: %d ranges on %d procs",
			len(rs), runtime.GOMAXPROCS(0))
	}
}

func TestRangesExactCapacity(t *testing.T) {
	for _, c := range [][3]int{{100, 4, 8}, {1, 1, 1}, {1000, 3, 4}, {17, 2, 4}} {
		rs := Partition(c[0], c[1], c[2])
		if cap(rs) != len(rs) {
			t.Fatalf("Partition(%v) over-allocated: len %d cap %d", c, len(rs), cap(rs))
		}
	}
}

func TestPoolRunParity(t *testing.T) {
	// The pooled Run must produce the same aggregate as serial execution
	// for every decomposition width, including widths far beyond the
	// worker count.
	for _, parts := range []int{2, 3, 7, 16, 64} {
		var sum atomic.Int64
		err := Run(manyRanges(1000, parts), func(lo, hi int) error {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			sum.Add(s)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := sum.Load(); got != 499500 {
			t.Fatalf("parts=%d: sum %d want 499500", parts, got)
		}
	}
}

func TestPoolRunLowestError(t *testing.T) {
	// The lowest-indexed range's error must win regardless of which
	// worker hits it first; repeat to shake scheduling orders.
	want := errors.New("lowest")
	other := errors.New("other")
	for trial := 0; trial < 200; trial++ {
		err := Run(manyRanges(64, 8), func(lo, hi int) error {
			if lo == 0 {
				return want
			}
			if lo >= 32 {
				return other
			}
			return nil
		})
		if err != want {
			t.Fatalf("trial %d: got %v want %v", trial, err, want)
		}
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	// A Run issued from inside a pool worker's fn must complete even
	// when every worker is occupied by the outer Run: help tokens are
	// non-blocking and the inner caller drives its own ranges.
	var inner atomic.Int64
	err := Run(manyRanges(16, 4), func(lo, hi int) error {
		return Run(manyRanges(8, 4), func(lo, hi int) error {
			inner.Add(int64(hi - lo))
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := inner.Load(); got != 4*8 {
		t.Fatalf("inner work lost: %d want %d", got, 4*8)
	}
}

func TestDispatchSingleProc(t *testing.T) {
	// The GOMAXPROCS=1 leg: with one processor the caller and the pool
	// workers share a thread, so any blocking handshake in dispatch
	// deadlocks. Hammer wide and nested dispatch under that regime.
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for trial := 0; trial < 100; trial++ {
		var sum atomic.Int64
		err := Run(manyRanges(256, 16), func(lo, hi int) error {
			return Run(manyRanges(4, 2), func(ilo, ihi int) error {
				for i := lo; i < hi; i++ {
					sum.Add(1)
				}
				return nil
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := sum.Load(); got != 2*256 {
			t.Fatalf("trial %d: sum %d want %d", trial, got, 2*256)
		}
	}
}

func TestPoolConcurrentStress(t *testing.T) {
	// Many goroutines hammer the pool at once — the shape of concurrent
	// solver iterations — so the race detector sees task recycling,
	// claim handoff, and error recording under contention.
	callers := 8
	iters := 50
	if testing.Short() {
		iters = 10
	}
	boom := errors.New("boom")
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				var sum atomic.Int64
				wantErr := (c+it)%3 == 0
				err := Run(manyRanges(512, 8), func(lo, hi int) error {
					if wantErr && lo == 0 {
						return boom
					}
					sum.Add(int64(hi - lo))
					return nil
				})
				if wantErr {
					if err != boom {
						panic(fmt.Sprintf("caller %d iter %d: got %v want boom", c, it, err))
					}
				} else if err != nil || sum.Load() != 512 {
					panic(fmt.Sprintf("caller %d iter %d: err %v sum %d", c, it, err, sum.Load()))
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestDispatchZeroAllocs(t *testing.T) {
	// Steady-state dispatch must not allocate: the task, its done
	// channel, and the error slot all come from the recycled free list.
	// AllocsPerRun pins GOMAXPROCS to 1 for the measurement, which is
	// also the regime where tardy helpers most plausibly pin tasks.
	ranges := manyRanges(64, 8)
	fn := func(lo, hi int) error { return nil }
	Run(ranges, fn) // warm the pool up outside the measurement
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Run(ranges, fn); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("dispatch allocated %v times per Run; want 0", allocs)
	}
}

func TestStatsReportDispatch(t *testing.T) {
	_, before := Stats()
	if err := Run(manyRanges(64, 4), func(lo, hi int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	workers, after := Stats()
	if workers < 1 {
		t.Fatalf("no resident workers after a parallel Run: %d", workers)
	}
	if after <= before {
		t.Fatalf("dispatch counter did not advance: %d -> %d", before, after)
	}
}

// BenchmarkParDispatch measures one Run over an 8-range no-op workload
// through the resident pool. Allocations are reported so the zero-allocs
// steady state is visible in the CI benchmark smoke.
func BenchmarkParDispatch(b *testing.B) {
	ranges := manyRanges(1024, 8)
	fn := func(lo, hi int) error { return nil }
	Run(ranges, fn)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Run(ranges, fn); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPoolFreeListExhaustion holds more dispatches in flight than the
// prefilled free list can supply, forcing the allocate-on-empty path,
// and checks every batch still completes with its work intact.
func TestPoolFreeListExhaustion(t *testing.T) {
	gate := make(chan struct{})
	var started, done sync.WaitGroup
	var total atomic.Int64
	const callers = 64
	for c := 0; c < callers; c++ {
		started.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			var once sync.Once
			err := Run(manyRanges(8, 4), func(lo, hi int) error {
				once.Do(started.Done) // this caller's task is now in flight
				<-gate
				total.Add(int64(hi - lo))
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	started.Wait() // every caller holds a task before any can finish
	close(gate)
	done.Wait()
	if total.Load() != callers*8 {
		t.Fatalf("lost work: %d of %d", total.Load(), callers*8)
	}
}

// TestRunRecoversRangePanic panics in range 3 of four at GOMAXPROCS 2,
// so the range may run on a pool goroutine: Run returns the panic as a
// *PanicError carrying the value and the stack, the lowest failing range
// still wins, and the pool serves the next Run.
func TestRunRecoversRangePanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ranges := manyRanges(4, 4)
	for trial := 0; trial < 50; trial++ {
		err := Run(ranges, func(lo, hi int) error {
			if lo == 3 {
				panic("range three")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "range three" || len(pe.Stack) == 0 {
			t.Fatalf("trial %d: Run returned %v, want the range's panic", trial, err)
		}
		errLow := errors.New("range one")
		err = Run(ranges, func(lo, hi int) error {
			switch lo {
			case 1:
				return errLow
			case 3:
				panic("range three")
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("trial %d: Run returned %v, want the lower range's error", trial, err)
		}
		var sum atomic.Int64
		if err := Run(ranges, func(lo, hi int) error {
			sum.Add(int64(hi - lo))
			return nil
		}); err != nil || sum.Load() != 4 {
			t.Fatalf("trial %d: the Run after a panic returned %v and covered %d of 4", trial, err, sum.Load())
		}
	}
}
