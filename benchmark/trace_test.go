package main

import (
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/solvers"
)

// A traced solve must be the same computation as an untraced one: the
// wrappers forward every capability the engine looks for, so the fused
// and banded paths are taken either way. Bit-identical x, equal
// iteration counts and equal check counters prove it.
func TestTracedSolveIsIdentical(t *testing.T) {
	for name, spec := range map[string]libSpec{"cg_csr": cgCSR, "pcg_shard": pcgShard} {
		t.Run(name, func(t *testing.T) {
			spec.nx = 48
			setup, err := prepareLib(spec)(3)
			if err != nil {
				t.Fatal(err)
			}
			inst, err := setup(nil)
			if err != nil {
				t.Fatal(err)
			}
			in := inst.(*libInstance)

			before := in.counters.Checks()
			plainRes, _, _, err := in.solveOnce(nil)
			if err != nil {
				t.Fatal(err)
			}
			plainChecks := in.counters.Checks() - before
			plainX := append([]float64(nil), in.x...)

			var sp spans
			before = in.counters.Checks()
			tracedRes, _, _, err := in.solveOnce(&sp)
			if err != nil {
				t.Fatal(err)
			}
			tracedChecks := in.counters.Checks() - before

			if plainRes.Iterations < minIterations || tracedRes.Iterations != plainRes.Iterations {
				t.Errorf("iterations: untraced %d, traced %d", plainRes.Iterations, tracedRes.Iterations)
			}
			if plainChecks == 0 || tracedChecks != plainChecks {
				t.Errorf("checks: untraced %d, traced %d", plainChecks, tracedChecks)
			}
			for i := range plainX {
				if math.Float64bits(in.x[i]) != math.Float64bits(plainX[i]) {
					t.Fatalf("x[%d]: untraced %v, traced %v", i, plainX[i], in.x[i])
				}
			}
			if sp.applies == 0 || sp.apply <= 0 {
				t.Error("traced solve recorded no operator span")
			}
			if in.pre != nil && (sp.pres == 0 || sp.dots == 0 || sp.phase[0] <= 0) {
				t.Errorf("traced sharded solve is missing spans: %+v", sp)
			}
		})
	}
}

// The two kernels no library workload reaches through the wrapper — the
// batched product BlockCG asks for and the unverified product of
// selective FGMRES — are forwarded too, with the same result.
func TestTracedOperatorForwardsOptionalKernels(t *testing.T) {
	a := csr.Laplacian2D(24, 24)
	n := a.Rows()
	m, err := op.New(op.CSR, a, op.Config{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i%7) - 3
	}
	solve := func(a solvers.Operator, kind solvers.Kind, opt solvers.Options) []float64 {
		t.Helper()
		x := core.NewVector(n, core.SECDED64)
		opt.Tol, opt.RelativeTol, opt.Workers = libTol, true, 1
		if _, err := solvers.Solve(kind, a, x, core.VectorFromSlice(data, core.SECDED64), opt); err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		if err := x.CopyTo(out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, c := range []struct {
		kind solvers.Kind
		opt  solvers.Options
	}{
		{solvers.KindBlockCG, solvers.Options{}},
		{solvers.KindFGMRES, solvers.Options{Reliability: solvers.ReliabilitySelective}},
	} {
		var sp spans
		traced, unhook := traceOperator(m.(protectedOp), 1, &sp)
		want := solve(solvers.MatrixOperator{M: m, Workers: 1}, c.kind, c.opt)
		got := solve(traced, c.kind, c.opt)
		unhook()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%v: x[%d] traced %v, untraced %v", c.kind, i, got[i], want[i])
			}
		}
		if sp.applies == 0 {
			t.Errorf("%v: no operator span recorded", c.kind)
		}
	}
}
