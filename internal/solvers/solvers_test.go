package solvers

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// spdSystem builds a small symmetric positive definite five-point system
// with a known solution.
func spdSystem(t *testing.T, nx, ny int) (*csr.Matrix, []float64, []float64) {
	t.Helper()
	a := csr.Laplacian2D(nx, ny)
	n := a.Rows()
	rng := rand.New(rand.NewSource(77))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.SpMV(b, xTrue)
	return a, xTrue, b
}

func protect(t *testing.T, a *csr.Matrix, es, rs Scheme) *core.Matrix {
	t.Helper()
	m, err := core.NewMatrix(a, core.MatrixOptions{ElemScheme: es, RowPtrScheme: rs})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Scheme aliases local to the test file for brevity.
type Scheme = core.Scheme

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestCGMatchesDenseSolve(t *testing.T) {
	a, xTrue, b := spdSystem(t, 6, 5)
	m := protect(t, a, core.None, core.None)
	x := core.NewVector(a.Rows(), core.None)
	bv := core.VectorFromSlice(b, core.None)
	res, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: %+v", res)
	}
	dense, err := DenseSolve(MatrixOperator{M: m}, b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, dense); d > 1e-8 {
		t.Fatalf("CG vs dense: max diff %g", d)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-8 {
		t.Fatalf("CG vs truth: max diff %g", d)
	}
}

func TestCGAllSchemesConverge(t *testing.T) {
	a, xTrue, b := spdSystem(t, 8, 8)
	for _, s := range core.Schemes {
		m := protect(t, a, s, s)
		x := core.NewVector(a.Rows(), s)
		bv := core.VectorFromSlice(b, s)
		res, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !res.Converged {
			t.Fatalf("%v: no convergence in %d iters (res %g)", s, res.Iterations, res.ResidualNorm)
		}
		got := make([]float64, a.Rows())
		if err := x.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		// The embedded redundancy perturbs values by <= 2^-44 relative, so
		// the solution must stay extremely close to the exact one: the
		// paper's "norm within 2.0e-11 percent" observation.
		if d := maxAbsDiff(got, xTrue); d > 1e-7 {
			t.Fatalf("%v: solution off by %g", s, d)
		}
	}
}

func TestCGIterationGrowthUnderProtectionIsSmall(t *testing.T) {
	// Paper section VI-B: iteration count increase from mantissa noise
	// must stay under 1 percent (here: equal or nearly so).
	a, _, b := spdSystem(t, 12, 12)
	iters := map[Scheme]int{}
	for _, s := range core.Schemes {
		m := protect(t, a, s, s)
		x := core.NewVector(a.Rows(), s)
		bv := core.VectorFromSlice(b, s)
		res, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		iters[s] = res.Iterations
	}
	base := iters[core.None]
	for s, n := range iters {
		if float64(n) > 1.02*float64(base)+1 {
			t.Fatalf("%v: iterations %d vs baseline %d (>2%% growth)", s, n, base)
		}
	}
}

func TestCGWithJacobiPreconditioner(t *testing.T) {
	a, xTrue, b := spdSystem(t, 7, 7)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	op := MatrixOperator{M: m}
	pre, err := NewJacobiPreconditioner(op, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	res, err := CG(op, x, bv, Options{Tol: 1e-10, Preconditioner: pre})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("preconditioned CG did not converge")
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("solution off by %g", d)
	}
}

func TestJacobiSolver(t *testing.T) {
	a, xTrue, b := spdSystem(t, 5, 4)
	m := protect(t, a, core.SED, core.SED)
	x := core.NewVector(a.Rows(), core.SED)
	bv := core.VectorFromSlice(b, core.SED)
	res, err := Jacobi(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-9, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("jacobi did not converge in %d iters (res %g)", res.Iterations, res.ResidualNorm)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-6 {
		t.Fatalf("solution off by %g", d)
	}
}

func TestChebyshevSolver(t *testing.T) {
	a, xTrue, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	res, err := Chebyshev(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-9, MaxIter: 5000, EigenIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("chebyshev did not converge in %d iters (res %g, eig [%g,%g])",
			res.Iterations, res.ResidualNorm, res.EigMin, res.EigMax)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-6 {
		t.Fatalf("solution off by %g", d)
	}
	if res.EigMin <= 0 || res.EigMax <= res.EigMin {
		t.Fatalf("bad spectrum estimate [%g, %g]", res.EigMin, res.EigMax)
	}
	// The recurrence is serial and deterministic: pin its trajectory.
	if res.Iterations != 37 || math.Float64bits(res.ResidualNorm) != 0x3e0f42a79f9bd068 {
		t.Fatalf("chebyshev trajectory moved: %d iters, residual %v (%#x); want 37, %#x",
			res.Iterations, res.ResidualNorm, math.Float64bits(res.ResidualNorm), uint64(0x3e0f42a79f9bd068))
	}
}

func TestPPCGSolver(t *testing.T) {
	a, xTrue, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	res, err := PPCG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-9, EigenIters: 30, InnerSteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("ppcg did not converge in %d iters (res %g)", res.Iterations, res.ResidualNorm)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-6 {
		t.Fatalf("solution off by %g", d)
	}
	// The inner smoothing is serial and deterministic: pin the trajectory.
	if res.Iterations != 10 || math.Float64bits(res.ResidualNorm) != 0x3dd92b1c54cd087e {
		t.Fatalf("ppcg trajectory moved: %d iters, residual %v (%#x); want 10, %#x",
			res.Iterations, res.ResidualNorm, math.Float64bits(res.ResidualNorm), uint64(0x3dd92b1c54cd087e))
	}

	// PPCG must need fewer outer iterations than plain CG.
	x2 := core.NewVector(a.Rows(), core.SECDED64)
	plain, err := CG(MatrixOperator{M: m}, x2, bv, Options{Tol: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= plain.Iterations {
		t.Fatalf("ppcg (%d iters) not faster than cg (%d iters)", res.Iterations, plain.Iterations)
	}
}

func TestSolveDispatchAndParseKind(t *testing.T) {
	a, _, b := spdSystem(t, 4, 4)
	for _, name := range []string{"cg", "jacobi", "chebyshev", "ppcg"} {
		kind, err := ParseKind(name)
		if err != nil {
			t.Fatal(err)
		}
		if kind.String() != name {
			t.Fatalf("round trip %q -> %v", name, kind)
		}
		m := protect(t, a, core.None, core.None)
		x := core.NewVector(a.Rows(), core.None)
		bv := core.VectorFromSlice(b, core.None)
		opt := Options{Tol: 1e-8, MaxIter: 20000, EigenIters: 12}
		res, err := Solve(kind, MatrixOperator{M: m}, x, bv, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s did not converge", name)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("unknown solver accepted")
	}
	if _, err := Solve(Kind(99), nil, nil, nil, Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCGSurfacesFaultWithIteration(t *testing.T) {
	a, _, b := spdSystem(t, 6, 6)
	m := protect(t, a, core.SED, core.None)
	// Corrupt the matrix: SED detects but cannot correct, so the solve
	// must fail with a classified fault.
	m.RawVals()[13] = math.Float64frombits(math.Float64bits(m.RawVals()[13]) ^ 1<<17)
	x := core.NewVector(a.Rows(), core.None)
	bv := core.VectorFromSlice(b, core.None)
	_, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10})
	if err == nil {
		t.Fatal("fault not surfaced")
	}
	var ie *IterationError
	if !errors.As(err, &ie) {
		t.Fatalf("error not an IterationError: %v", err)
	}
	if !IsFault(err) {
		t.Fatalf("IsFault false for %v", err)
	}
	var fe *core.FaultError
	if !errors.As(err, &fe) || fe.Scheme != core.SED {
		t.Fatalf("wrapped fault lost: %v", err)
	}
}

func TestCGRecoversAfterScrub(t *testing.T) {
	// The application-level recovery the paper advocates: on a detected
	// uncorrectable error, re-protect the matrix and re-run the solve
	// instead of aborting the program.
	a, xTrue, b := spdSystem(t, 6, 6)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	// Double flip = uncorrectable for SECDED.
	m.RawVals()[8] = math.Float64frombits(math.Float64bits(m.RawVals()[8]) ^ 1<<3 ^ 1<<57)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	_, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10})
	if !IsFault(err) {
		t.Fatalf("expected fault, got %v", err)
	}
	// Recovery: rebuild the protected matrix from pristine data.
	m2 := protect(t, a, core.SECDED64, core.SECDED64)
	x.Fill(0)
	res, err := CG(MatrixOperator{M: m2}, x, bv, Options{Tol: 1e-10})
	if err != nil || !res.Converged {
		t.Fatalf("recovery solve failed: %v %+v", err, res)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("recovered solution off by %g", d)
	}
}

func TestCGTransparentCorrectionMidSolve(t *testing.T) {
	a, xTrue, b := spdSystem(t, 6, 6)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	var c core.Counters
	m.SetCounters(&c)
	// Single flip: SECDED corrects it during the first sweep and the
	// solve proceeds untouched.
	m.RawVals()[20] = math.Float64frombits(math.Float64bits(m.RawVals()[20]) ^ 1<<30)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	res, err := CG(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10})
	if err != nil || !res.Converged {
		t.Fatalf("solve failed: %v %+v", err, res)
	}
	if c.Corrected() == 0 {
		t.Fatal("correction not performed")
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("solution off by %g after mid-solve correction", d)
	}
}

func TestRelativeVsAbsoluteTolerance(t *testing.T) {
	a, _, b := spdSystem(t, 6, 6)
	m := protect(t, a, core.None, core.None)
	bv := core.VectorFromSlice(b, core.None)

	x1 := core.NewVector(a.Rows(), core.None)
	abs, err := CG(MatrixOperator{M: m}, x1, bv, Options{Tol: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	x2 := core.NewVector(a.Rows(), core.None)
	rel, err := CG(MatrixOperator{M: m}, x2, bv, Options{Tol: 1e-6, RelativeTol: true})
	if err != nil {
		t.Fatal(err)
	}
	if !abs.Converged || !rel.Converged {
		t.Fatal("both solves should converge")
	}
	if abs.ResidualNorm > 1e-6 {
		t.Fatalf("absolute tolerance violated: %g", abs.ResidualNorm)
	}
}

func TestDenseSolveValidation(t *testing.T) {
	rect, err := csr.New(2, 3, []csr.Entry{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DenseSolve(MatrixOperator{M: protect(t, rect, core.None, core.None)}, []float64{1, 2}); err == nil {
		t.Fatal("rectangular operator accepted")
	}
	sq, err := csr.New(2, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DenseSolve(MatrixOperator{M: protect(t, sq, core.None, core.None)}, []float64{1}); err == nil {
		t.Fatal("short rhs accepted")
	}
	sing, err := csr.New(2, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DenseSolve(MatrixOperator{M: protect(t, sing, core.None, core.None)}, []float64{1, 2}); err == nil {
		t.Fatal("singular operator accepted")
	}
}

func TestEigenBoundsOnKnownMatrix(t *testing.T) {
	// Tridiagonal [2,-1] matrix of size n has eigenvalues
	// 2 - 2 cos(k pi / (n+1)).
	n := 20
	diag := make([]float64, n)
	off := make([]float64, n-1)
	for i := range diag {
		diag[i] = 2
	}
	for i := range off {
		off[i] = -1
	}
	lo, hi := tridiagEigenBounds(diag, off)
	wantLo := 2 - 2*math.Cos(math.Pi/float64(n+1))
	wantHi := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	if math.Abs(lo-wantLo) > 1e-6 || math.Abs(hi-wantHi) > 1e-6 {
		t.Fatalf("bounds [%g,%g], want [%g,%g]", lo, hi, wantLo, wantHi)
	}
}

func TestParallelSolveMatchesSerialClosely(t *testing.T) {
	a, _, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	xs := core.NewVector(a.Rows(), core.SECDED64)
	serial, err := CG(MatrixOperator{M: m}, xs, bv, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	m2 := protect(t, a, core.SECDED64, core.SECDED64)
	xp := core.NewVector(a.Rows(), core.SECDED64)
	parallel, err := CG(MatrixOperator{M: m2, Workers: 4}, xp, bv, Options{Tol: 1e-10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Converged || !parallel.Converged {
		t.Fatal("both should converge")
	}
	gs := make([]float64, a.Rows())
	gp := make([]float64, a.Rows())
	if err := xs.CopyTo(gs); err != nil {
		t.Fatal(err)
	}
	if err := xp.CopyTo(gp); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(gs, gp); d > 1e-7 {
		t.Fatalf("parallel and serial solutions differ by %g", d)
	}
}
