package solvers

import (
	"testing"

	"abft/internal/core"
)

func TestCGRecordsHistory(t *testing.T) {
	a, _, b := spdSystem(t, 6, 6)
	m := protect(t, a, core.None, core.None)
	x := core.NewVector(a.Rows(), core.None)
	bv := core.VectorFromSlice(b, core.None)
	res, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10, RecordHistory: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != res.Iterations {
		t.Fatalf("history %d entries for %d iterations", len(res.History), res.Iterations)
	}
	// Residuals must trend downward overall (CG is not monotone in the
	// 2-norm, but first vs last must improve by orders of magnitude).
	if res.History[len(res.History)-1] >= res.History[0] {
		t.Fatalf("no convergence progress: %g -> %g",
			res.History[0], res.History[len(res.History)-1])
	}
}

func TestCGMaxIterExhausted(t *testing.T) {
	a, _, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.None, core.None)
	x := core.NewVector(a.Rows(), core.None)
	bv := core.VectorFromSlice(b, core.None)
	res, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-30, MaxIter: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("cannot converge to 1e-30 in 3 iterations")
	}
	if res.Iterations != 3 {
		t.Fatalf("iterations %d want 3", res.Iterations)
	}
}

func TestCGAlreadyConverged(t *testing.T) {
	a, xTrue, b := spdSystem(t, 5, 5)
	m := protect(t, a, core.None, core.None)
	x := core.VectorFromSlice(xTrue, core.None) // exact initial guess
	bv := core.VectorFromSlice(b, core.None)
	res, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("exact guess should converge immediately: %+v", res)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Tol == 0 || o.MaxIter == 0 || o.EigenIters == 0 || o.InnerSteps == 0 {
		t.Fatalf("defaults missing: %+v", o)
	}
}

func TestJacobiPreconditionerRejectsZeroDiagonal(t *testing.T) {
	a, _, _ := spdSystem(t, 4, 4)
	m := protect(t, a, core.None, core.None)
	// Zero out a diagonal entry in the raw storage.
	plainOp := MatrixOperator{M: m}
	d := make([]float64, a.Rows())
	if err := plainOp.Diagonal(d); err != nil {
		t.Fatal(err)
	}
	// Build a matrix with an explicit zero diagonal instead.
	bad := a.Clone()
	for k := bad.RowPtr[0]; k < bad.RowPtr[1]; k++ {
		if bad.Cols[k] == 0 {
			bad.Vals[k] = 0
		}
	}
	mb := protect(t, bad, core.None, core.None)
	if _, err := newJacobi(MatrixOperator{M: mb}, core.NewVector(a.Rows(), core.None), 1); err == nil {
		t.Fatal("zero diagonal accepted")
	}
}

func TestIterationErrorUnwrap(t *testing.T) {
	inner := errBreakdown
	err := iterErr("cg", 7, inner)
	var ie *IterationError
	if !asIterationError(err, &ie) || ie.Iteration != 7 || ie.Solver != "cg" {
		t.Fatalf("wrap lost metadata: %v", err)
	}
	if ie.Unwrap() != inner {
		t.Fatal("unwrap lost inner error")
	}
	if iterErr("cg", 1, nil) != nil {
		t.Fatal("nil error should stay nil")
	}
	if err.Error() == "" {
		t.Fatal("error should format")
	}
}

func asIterationError(err error, target **IterationError) bool {
	for err != nil {
		if ie, ok := err.(*IterationError); ok {
			*target = ie
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

func TestChebyshevHistoryAndBounds(t *testing.T) {
	a, _, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.None, core.None)
	x := core.NewVector(a.Rows(), core.None)
	bv := core.VectorFromSlice(b, core.None)
	res, err := Chebyshev(MatrixOperator{M: m}, x, bv, Options{
		Tol: 1e-8, MaxIter: 5000, EigenIters: 25, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) == 0 {
		t.Fatal("no history recorded")
	}
	if res.EigMax <= 0 || res.EigMin <= 0 {
		t.Fatalf("bad eigen estimates: %+v", res)
	}
}
