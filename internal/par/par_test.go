package par

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestRangesCoverEverything(t *testing.T) {
	f := func(n uint16, workers, align uint8) bool {
		rs := Ranges(int(n), int(workers), int(align))
		next := 0
		for _, r := range rs {
			if r[0] != next || r[1] <= r[0] {
				return false
			}
			next = r[1]
		}
		return next == int(n) || (n == 0 && len(rs) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRangesAlignment(t *testing.T) {
	rs := Ranges(100, 7, 8)
	for i, r := range rs {
		if i < len(rs)-1 && r[1]%8 != 0 {
			t.Fatalf("interior boundary %d not aligned: %v", r[1], rs)
		}
	}
	if len(rs) > 7 {
		t.Fatalf("more ranges than workers: %d", len(rs))
	}
}

func TestRangesDegenerate(t *testing.T) {
	if rs := Ranges(0, 4, 8); rs != nil {
		t.Fatalf("empty input should yield no ranges: %v", rs)
	}
	if rs := Ranges(5, 0, 0); len(rs) != 1 || rs[0] != [2]int{0, 5} {
		t.Fatalf("clamped workers/align wrong: %v", rs)
	}
	if rs := Ranges(3, 100, 8); len(rs) != 1 {
		t.Fatalf("tiny input should collapse to one range: %v", rs)
	}
}

func TestRunCollectsWork(t *testing.T) {
	var sum atomic.Int64
	err := ForEach(1000, 4, 1, func(lo, hi int) error {
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
		t.Fatalf("sum %d want 499500", got)
	}
}

// TestForEachSplitsAsRanges: ForEach visits exactly the ranges Ranges
// returns, and a split into one range runs inline without allocating.
func TestForEachSplitsAsRanges(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for n := -1; n <= 40; n++ {
		for workers := -1; workers <= 6; workers++ {
			for _, align := range []int{0, 1, 3, 8} {
				var mu sync.Mutex
				var got [][2]int
				if err := ForEach(n, workers, align, func(lo, hi int) error {
					mu.Lock()
					got = append(got, [2]int{lo, hi})
					mu.Unlock()
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
				if want := Ranges(n, workers, align); !reflect.DeepEqual(got, want) {
					t.Fatalf("ForEach(%d, %d, %d) ran %v, Ranges splits %v", n, workers, align, got, want)
				}
			}
		}
	}
	var sum int
	fn := func(lo, hi int) error { sum += hi - lo; return nil }
	if allocs := testing.AllocsPerRun(10, func() { _ = ForEach(100, 1, 8, fn) }); allocs != 0 {
		t.Fatalf("one-range ForEach: %v allocations, want 0", allocs)
	}
}

func TestRunReturnsFirstError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := Run([][2]int{{0, 1}, {1, 2}, {2, 3}}, func(lo, hi int) error {
		switch lo {
		case 1:
			return errB
		case 0:
			return errA
		}
		return nil
	})
	if err != errA {
		t.Fatalf("expected the lowest range's error, got %v", err)
	}
	if err := Run(nil, func(int, int) error { return errA }); err != nil {
		t.Fatalf("no ranges should mean no error: %v", err)
	}
}

func TestRunSerialFastPath(t *testing.T) {
	calls := 0
	err := Run([][2]int{{0, 10}}, func(lo, hi int) error {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("wrong range %d %d", lo, hi)
		}
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("serial path wrong: %v %d", err, calls)
	}
}
