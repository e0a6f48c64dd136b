package main

import (
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/solvers"
)

// A hand-solved system: A x = b with x = (1, 2, 3).
func TestRefCGHandSolved(t *testing.T) {
	a, err := csr.New(3, 3, []csr.Entry{
		{Row: 0, Col: 0, Val: 4}, {Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 3}, {Row: 1, Col: 2, Val: 1},
		{Row: 2, Col: 1, Val: 1}, {Row: 2, Col: 2, Val: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{6, 10, 8}
	x := make([]float64, 3)
	iters, ok := refCG(a, b, x, newRefScratch(3), 1e-12, 10)
	if !ok || iters > 3 {
		t.Fatalf("refCG: converged=%v after %d iterations, want convergence within 3", ok, iters)
	}
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-10 {
			t.Errorf("x[%d] = %v, want %v", i, x[i], want)
		}
	}
	if !residualOK(a, b, x, 1e-12) {
		t.Error("residualOK rejects the exact solution")
	}
	x[1] += 1e-3
	if residualOK(a, b, x, 1e-8) {
		t.Error("residualOK accepts a solution that is off by 1e-3")
	}
	x[1] = math.NaN()
	if residualOK(a, b, x, 1e-8) {
		t.Error("residualOK accepts NaN")
	}
}

// The reference and the in-repo unprotected path are the same algorithm
// on the same data, so they must agree on the iteration count and, to
// rounding, on the solution.
func TestRefCGMatchesUnprotectedSolve(t *testing.T) {
	a := csr.Laplacian2D(16, 16)
	n := a.Rows()
	b := make([]float64, n)
	rhs(rand.New(rand.NewSource(7)), b)
	x := make([]float64, n)
	iters, ok := refCG(a, b, x, newRefScratch(n), libTol, n)
	if !ok || iters < minIterations {
		t.Fatalf("refCG: converged=%v after %d iterations", ok, iters)
	}
	if !residualOK(a, b, x, libTol) {
		t.Fatal("reference solution fails the residual check")
	}

	m, err := op.New(op.CSR, a, op.Config{})
	if err != nil {
		t.Fatal(err)
	}
	xv := core.NewVector(n, core.None)
	res, err := solvers.CG(solvers.MatrixOperator{M: m, Workers: 1}, xv, core.VectorFromSlice(b, core.None),
		solvers.Options{Tol: libTol, RelativeTol: true, Workers: 1})
	if err != nil || !res.Converged {
		t.Fatalf("solvers.CG: %v, converged=%v", err, res.Converged)
	}
	if res.Iterations != iters {
		t.Errorf("solvers.CG took %d iterations, refCG %d", res.Iterations, iters)
	}
	got := make([]float64, n)
	if err := xv.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Abs(got[i]-x[i]) > 1e-9 {
			t.Fatalf("x[%d]: solvers.CG %v, refCG %v", i, got[i], x[i])
		}
	}
}
