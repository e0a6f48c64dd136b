// Check-interval conformance: every format, sharded or not, honours
// op.Config.CheckInterval through the one sweep counter of core.Shell.
// Full sweeps verify the matrix, the sweeps between range-check it, the
// source vector is verified on every sweep, and unverified products
// leave the counter alone.
package op_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"abft/internal/core"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

const testInterval = 4

// intervalCase is one operator shape under test: a format, unsharded
// (shards 0) or split into row bands, under one scheme.
type intervalCase struct {
	f      op.Format
	shards int
	s      core.Scheme
}

func (c intervalCase) String() string {
	if c.shards == 0 {
		return fmt.Sprintf("%v_%v", c.f, c.s)
	}
	return fmt.Sprintf("%v_shards%d_%v", c.f, c.shards, c.s)
}

// build constructs the case's operator at the given check interval and
// attaches mc to its matrix storage only (every band's, when sharded),
// so mc counts matrix codeword checks and nothing else.
func (c intervalCase) build(t *testing.T, interval int, mc *core.Counters) core.ProtectedMatrix {
	t.Helper()
	cfg := op.Config{Scheme: c.s, RowPtrScheme: c.s, CheckInterval: interval}
	if c.shards == 0 {
		m, err := op.New(c.f, shardTestMatrix(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetCounters(mc)
		return m
	}
	o, err := shard.New(shardTestMatrix(), shard.Options{Shards: c.shards, Format: c.f, Config: cfg, VectorScheme: c.s})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < o.Shards(); i++ {
		o.Shard(i).SetCounters(mc)
	}
	return o
}

// storage returns the matrix whose stored values a strike flips: the
// operator itself, or its first band.
func storage(m core.ProtectedMatrix) core.ProtectedMatrix {
	if o, ok := m.(*shard.Operator); ok {
		return o.Shard(0)
	}
	return m
}

func forEachIntervalCase(t *testing.T, fn func(t *testing.T, c intervalCase)) {
	t.Helper()
	var cases []intervalCase
	for _, f := range op.Formats {
		for _, s := range []core.Scheme{core.SED, core.SECDED64, core.CRC32C} {
			cases = append(cases, intervalCase{f: f, s: s})
		}
	}
	for _, f := range op.Formats {
		for _, s := range []core.Scheme{core.SED, core.SECDED64, core.CRC32C} {
			cases = append(cases, intervalCase{f: f, shards: 2, s: s})
		}
	}
	for _, c := range cases {
		t.Run(c.String(), func(t *testing.T) { fn(t, c) })
	}
}

// product runs one Apply of m on a fresh protected copy of xs whose
// checks count into xc, and returns the result and the error.
func product(m core.ProtectedMatrix, s core.Scheme, xs []float64, xc *core.Counters) ([]float64, error) {
	x := core.VectorFromSlice(xs, s)
	x.SetCounters(xc)
	dst := core.NewVector(m.Rows(), core.None)
	if err := m.Apply(dst, x, 1); err != nil {
		return nil, err
	}
	out := make([]float64, m.Rows())
	return out, dst.CopyTo(out)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCheckIntervalConformance pins the interval contract for CSR, COO,
// SELL-C-sigma and each of them split into 2 bands, under SED, SECDED64
// and CRC32C at interval 4.
func TestCheckIntervalConformance(t *testing.T) {
	forEachIntervalCase(t, func(t *testing.T, c intervalCase) {
		xs := shardRefVector(shardTestMatrix().Cols32())

		t.Run("clean", func(t *testing.T) {
			// Clean products are bit-identical to interval 1; the matrix
			// is checked on sweeps 0, 4 and 8 only, the source on every
			// sweep.
			var mc, ref core.Counters
			m, every := c.build(t, testInterval, &mc), c.build(t, 1, &ref)
			var full, sources uint64
			for sweep := 0; sweep <= 2*testInterval; sweep++ {
				var xc, xr core.Counters
				before := mc.Checks()
				got, err := product(m, c.s, xs, &xc)
				if err != nil {
					t.Fatalf("sweep %d: %v", sweep, err)
				}
				want, err := product(every, c.s, xs, &xr)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Fatalf("sweep %d: product differs from interval 1", sweep)
				}
				checks := mc.Checks() - before
				switch {
				case sweep%testInterval != 0 && checks != 0:
					t.Fatalf("sweep %d: %d matrix checks between full sweeps", sweep, checks)
				case sweep == 0:
					full = checks
				case sweep%testInterval == 0 && checks != full:
					t.Fatalf("sweep %d: %d matrix checks, want %d as on sweep 0", sweep, checks, full)
				}
				if sweep == 0 {
					sources = xc.Checks()
				}
				if xc.Checks() == 0 || xc.Checks() != sources || xr.Checks() != sources {
					t.Fatalf("sweep %d: %d source checks (interval 1: %d), want %d on every sweep",
						sweep, xc.Checks(), xr.Checks(), sources)
				}
			}
			if full == 0 {
				t.Fatal("sweep 0 checked no matrix codeword")
			}
		})

		t.Run("cg", func(t *testing.T) {
			// A CG solve reads the matrix through the same products, so it
			// is bit-identical too: same iterations, same iterate.
			solve := func(interval int) ([]float64, solvers.Result) {
				var mc core.Counters
				a := solvers.MatrixOperator{M: c.build(t, interval, &mc), Workers: 1}
				b := core.VectorFromSlice(xs, c.s)
				x := core.NewVector(len(xs), c.s)
				res, err := solvers.CG(a, x, b, solvers.Options{Tol: 1e-10, RelativeTol: true, Workers: 1})
				if err != nil || !res.Converged {
					t.Fatalf("interval %d: err %v, result %+v", interval, err, res)
				}
				out := make([]float64, len(xs))
				if err := x.CopyTo(out); err != nil {
					t.Fatal(err)
				}
				return out, res
			}
			got, gres := solve(testInterval)
			want, wres := solve(1)
			if gres.Iterations != wres.Iterations || !sameBits(got, want) {
				t.Fatalf("interval %d: %d iterations, interval 1: %d; iterates equal %v",
					testInterval, gres.Iterations, wres.Iterations, sameBits(got, want))
			}
		})

		t.Run("strike", func(t *testing.T) {
			// A flip struck after sweep 0 is invisible to the range-check
			// sweeps 1-3 and handled on sweep 4: corrected by SECDED64 and
			// CRC32C, detected by SED.
			var mc, xc core.Counters
			m := c.build(t, testInterval, &mc)
			want, err := product(m, c.s, xs, &xc)
			if err != nil {
				t.Fatal(err)
			}
			v := storage(m).RawVals()
			v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<40)
			for sweep := 1; sweep < testInterval; sweep++ {
				if _, err := product(m, c.s, xs, &xc); err != nil {
					t.Fatalf("sweep %d: %v before the full check", sweep, err)
				}
				if mc.Corrected() != 0 || mc.Detected() != 0 {
					t.Fatalf("sweep %d: flip handled before the full check: %+v", sweep, mc.Snapshot())
				}
			}
			got, err := product(m, c.s, xs, &xc)
			if c.s == core.SED {
				var fe *core.FaultError
				if !errors.As(err, &fe) || mc.Detected() != 1 {
					t.Fatalf("sweep %d: err %v, %d detected; want the flip detected", testInterval, err, mc.Detected())
				}
				return
			}
			if err != nil || mc.Corrected() != 1 {
				t.Fatalf("sweep %d: err %v, %d corrected; want the flip corrected", testInterval, err, mc.Corrected())
			}
			if !sameBits(got, want) {
				t.Fatalf("sweep %d: corrected product differs from the clean one", testInterval)
			}
		})

		t.Run("unverified", func(t *testing.T) {
			// ApplyUnverified between full sweeps checks nothing and does
			// not advance the counter: the fifth verified product is still
			// the next full sweep.
			var mc, xc core.Counters
			m := c.build(t, testInterval, &mc)
			for apply := 0; apply <= testInterval; apply++ {
				before := mc.Checks()
				if _, err := product(m, c.s, xs, &xc); err != nil {
					t.Fatal(err)
				}
				if checked := mc.Checks() > before; checked != (apply%testInterval == 0) {
					t.Fatalf("verified product %d: checked %v", apply, checked)
				}
				before = mc.Checks()
				x := core.VectorFromSlice(xs, c.s)
				if err := m.ApplyUnverified(core.NewVector(m.Rows(), core.None), x, 1); err != nil {
					t.Fatal(err)
				}
				if mc.Checks() != before {
					t.Fatalf("ApplyUnverified counted %d checks", mc.Checks()-before)
				}
			}
		})
	})
}

// TestCheckIntervalConcurrentShared: shared-mode products of one COO, one
// SELL and one 2-band sharded SELL operator from several goroutines (the
// solve service's cached operators) each draw a unique sweep number, so
// of 4n products exactly n are full sweeps, and every product is
// bit-identical to the serial one.
func TestCheckIntervalConcurrentShared(t *testing.T) {
	const goroutines, each = 4, 6
	for _, c := range []intervalCase{
		{f: op.COO, s: core.SECDED64},
		{f: op.SELLCS, s: core.SECDED64},
		{f: op.SELLCS, shards: 2, s: core.SECDED64},
	} {
		name := c.f.String()
		if c.shards > 0 {
			name = c.String()
		}
		t.Run(name, func(t *testing.T) {
			xs := shardRefVector(shardTestMatrix().Cols32())
			var one, mc core.Counters
			want, err := product(c.build(t, 1, &one), c.s, xs, nil)
			if err != nil {
				t.Fatal(err)
			}
			m := c.build(t, testInterval, &mc)
			m.SetReadMode(core.ModeShared)
			var wg sync.WaitGroup
			errs := make(chan error, goroutines*each)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						got, err := product(m, c.s, xs, nil)
						if err == nil && !sameBits(got, want) {
							err = errors.New("product differs from the serial one")
						}
						if err != nil {
							errs <- err
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			fulls := uint64(goroutines * each / testInterval)
			if mc.Checks() != fulls*one.Checks() {
				t.Fatalf("%d matrix checks over %d products, want %d full sweeps of %d",
					mc.Checks(), goroutines*each, fulls, one.Checks())
			}
		})
	}
}
