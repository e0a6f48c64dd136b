// Package op_test holds the conformance checks that need the shard
// package (shard imports op, so they cannot live in op's internal
// tests): nonsymmetric FGMRES parity across format x scheme x sharding
// and the unverified-apply contract.
package op_test

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// nonsymMatrix builds the nonsymmetric conformance operator: upwind
// convection-diffusion with asymmetric dimensions.
func nonsymMatrix() *csr.Matrix {
	return csr.ConvectionDiffusion2D(10, 8, 1.5, 0.5)
}

func refSolution(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*13)%29) - 14 + float64(i%7)/8
	}
	return xs
}

func forEachPair(t *testing.T, fn func(t *testing.T, f op.Format, s core.Scheme)) {
	for _, f := range op.Formats {
		for _, s := range core.Schemes {
			t.Run(fmt.Sprintf("%v_%v", f, s), func(t *testing.T) { fn(t, f, s) })
		}
	}
}

// TestConformanceUnverifiedApplyMatchesVerified asserts the no-decode
// fast path's contract for every format x scheme pair: ApplyUnverified
// reproduces Apply bit-for-bit on clean storage and performs zero
// codeword checks.
func TestConformanceUnverifiedApplyMatchesVerified(t *testing.T) {
	forEachPair(t, func(t *testing.T, f op.Format, s core.Scheme) {
		plain := nonsymMatrix()
		xs := refSolution(plain.Cols32())
		m, err := op.New(f, plain, op.Config{Scheme: s, RowPtrScheme: s})
		if err != nil {
			t.Fatal(err)
		}
		var c core.Counters
		m.SetCounters(&c)
		x := core.VectorFromSlice(xs, core.None)
		want := core.NewVector(m.Rows(), core.None)
		if err := m.Apply(want, x, 2); err != nil {
			t.Fatal(err)
		}
		verifiedChecks := c.Snapshot().Checks

		ua, ok := m.(core.UnverifiedApplier)
		if !ok {
			t.Fatalf("%v does not implement core.UnverifiedApplier", f)
		}
		got := core.NewVector(m.Rows(), core.None)
		if err := ua.ApplyUnverified(got, x, 2); err != nil {
			t.Fatal(err)
		}
		if after := c.Snapshot(); after.Checks != verifiedChecks {
			t.Fatalf("unverified apply performed %d checks", after.Checks-verifiedChecks)
		}
		wv := make([]float64, m.Rows())
		gv := make([]float64, m.Rows())
		if err := want.CopyTo(wv); err != nil {
			t.Fatal(err)
		}
		if err := got.CopyTo(gv); err != nil {
			t.Fatal(err)
		}
		for i := range wv {
			if wv[i] != gv[i] {
				t.Fatalf("row %d: unverified %v != verified %v", i, gv[i], wv[i])
			}
		}

		// CSR has no unverified kernel of its own: ApplyUnverified is the
		// range-check-only sweep interval checking runs between full
		// checks. The Apply above was sweep 0; at interval 2 the next one
		// is such a sweep, and the unverified call must reproduce it bit
		// for bit while leaving both operands' counters alone.
		cm, ok := m.(*core.Matrix)
		if !ok {
			return
		}
		cm.SetCheckInterval(2)
		px := core.VectorFromSlice(xs, s)
		var xc core.Counters
		px.SetCounters(&xc)
		if err := cm.Apply(want, px, 2); err != nil {
			t.Fatal(err)
		}
		mBefore, xBefore := c.Snapshot(), xc.Snapshot()
		if err := cm.ApplyUnverified(got, px, 2); err != nil {
			t.Fatal(err)
		}
		if c.Snapshot() != mBefore || xc.Snapshot() != xBefore {
			t.Fatalf("unverified apply touched the counters: matrix %+v -> %+v, x %+v -> %+v",
				mBefore, c.Snapshot(), xBefore, xc.Snapshot())
		}
		if err := want.CopyTo(wv); err != nil {
			t.Fatal(err)
		}
		if err := got.CopyTo(gv); err != nil {
			t.Fatal(err)
		}
		for i := range wv {
			if math.Float64bits(wv[i]) != math.Float64bits(gv[i]) {
				t.Fatalf("row %d: unverified %x != non-checking sweep %x", i,
					math.Float64bits(gv[i]), math.Float64bits(wv[i]))
			}
		}
	})
}

// TestConformanceFGMRESParity sweeps FGMRES over format x scheme x
// sharding x restart on the nonsymmetric operator: every configuration
// must converge to the true solution, and within each configuration the
// selective solve must match the full one bit for bit fault-free.
func TestConformanceFGMRESParity(t *testing.T) {
	plain := nonsymMatrix()
	rows := plain.Rows()
	xTrue := refSolution(rows)
	bs := make([]float64, rows)
	plain.SpMV(bs, xTrue)

	forEachPair(t, func(t *testing.T, f op.Format, s core.Scheme) {
		for _, shards := range []int{0, 3} {
			for _, restart := range []int{0, 6} {
				t.Run(fmt.Sprintf("shards%d_restart%d", shards, restart), func(t *testing.T) {
					solve := func(rel solvers.Reliability) []float64 {
						var m core.ProtectedMatrix
						var err error
						if shards > 1 {
							m, err = shard.New(plain, shard.Options{
								Shards:       shards,
								Format:       f,
								Config:       op.Config{Scheme: s, RowPtrScheme: s},
								VectorScheme: s,
							})
						} else {
							m, err = op.New(f, plain, op.Config{Scheme: s, RowPtrScheme: s})
						}
						if err != nil {
							t.Fatal(err)
						}
						m.SetCounters(&core.Counters{})
						x := core.NewVector(rows, s)
						b := core.VectorFromSlice(bs, s)
						res, err := solvers.FGMRES(
							solvers.MatrixOperator{M: m, Workers: 2}, x, b,
							solvers.Options{Tol: 1e-10, Restart: restart, Reliability: rel})
						if err != nil {
							t.Fatal(err)
						}
						if !res.Converged {
							t.Fatalf("%v: no convergence in %d cycles (res %g)",
								rel, res.Iterations, res.ResidualNorm)
						}
						out := make([]float64, rows)
						if err := x.CopyTo(out); err != nil {
							t.Fatal(err)
						}
						return out
					}
					full := solve(solvers.ReliabilityFull)
					sel := solve(solvers.ReliabilitySelective)
					for i := range full {
						if d := math.Abs(full[i] - xTrue[i]); d > 1e-6*(1+math.Abs(xTrue[i])) {
							t.Fatalf("row %d off truth by %g", i, d)
						}
						if full[i] != sel[i] {
							t.Fatalf("row %d: full %v != selective %v (must be bit-exact fault-free)",
								i, full[i], sel[i])
						}
					}
				})
			}
		}
	})
}
