package solvers

import (
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// nonsymSystem builds a small nonsymmetric convection-diffusion system
// with a known solution.
func nonsymSystem(t *testing.T, nx, ny int) (*csr.Matrix, []float64, []float64) {
	t.Helper()
	a := csr.ConvectionDiffusion2D(nx, ny, 1.5, 0.5)
	n := a.Rows()
	rng := rand.New(rand.NewSource(41))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.SpMV(b, xTrue)
	return a, xTrue, b
}

func TestConvectionDiffusion2DIsNonsymmetric(t *testing.T) {
	a := csr.ConvectionDiffusion2D(4, 4, 1.5, 0.5)
	sym := true
	dense := make(map[[2]int]float64)
	for r := 0; r < a.Rows(); r++ {
		lo, hi := int(a.RowPtr[r]), int(a.RowPtr[r+1])
		for k := lo; k < hi; k++ {
			dense[[2]int{r, int(a.Cols[k])}] += a.Vals[k]
		}
	}
	for k, v := range dense {
		if dense[[2]int{k[1], k[0]}] != v {
			sym = false
			break
		}
	}
	if sym {
		t.Fatal("ConvectionDiffusion2D with nonzero convection must be nonsymmetric")
	}
}

func TestFGMRESMatchesDenseSolve(t *testing.T) {
	a, xTrue, b := nonsymSystem(t, 6, 5)
	m := protect(t, a, core.None, core.None)
	x := core.NewVector(a.Rows(), core.None)
	bv := core.VectorFromSlice(b, core.None)
	res, err := FGMRES(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("FGMRES did not converge: %+v", res)
	}
	if res.ArnoldiSteps == 0 {
		t.Fatal("FGMRES reported zero Arnoldi steps")
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
		t.Fatalf("FGMRES vs dense: max diff %g", d)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-8 {
		t.Fatalf("FGMRES vs truth: max diff %g", d)
	}
}

func TestFGMRESAllSchemesConverge(t *testing.T) {
	a, xTrue, b := nonsymSystem(t, 8, 8)
	for _, s := range core.Schemes {
		m := protect(t, a, s, s)
		x := core.NewVector(a.Rows(), s)
		bv := core.VectorFromSlice(b, s)
		res, err := FGMRES(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10})
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
		if d := maxAbsDiff(got, xTrue); d > 1e-7 {
			t.Fatalf("%v: solution off by %g", s, d)
		}
	}
}

func TestFGMRESShortRestartConverges(t *testing.T) {
	// A restart length far below the iteration count forces several
	// cycles, exercising the per-cycle verified residual and x update.
	a, xTrue, b := nonsymSystem(t, 9, 7)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	res, err := FGMRES(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10, Restart: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("restarted FGMRES did not converge: %+v", res)
	}
	if res.Iterations < 2 {
		t.Fatalf("restart 5 should need several cycles, got %d", res.Iterations)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("solution off by %g", d)
	}
}

// TestFGMRESSelectiveMatchesFullBitExact pins the no-decode fast path's
// core promise: fault-free, unverified reads surface bit-identical
// payloads, so a selective solve walks the exact float trajectory of a
// full one.
func TestFGMRESSelectiveMatchesFullBitExact(t *testing.T) {
	a, _, b := nonsymSystem(t, 8, 6)
	solve := func(rel Reliability) []float64 {
		m := protect(t, a, core.SECDED64, core.SECDED64)
		x := core.NewVector(a.Rows(), core.SECDED64)
		bv := core.VectorFromSlice(b, core.SECDED64)
		res, err := FGMRES(MatrixOperator{M: m}, x, bv,
			Options{Tol: 1e-10, Restart: 8, Reliability: rel})
		if err != nil {
			t.Fatalf("%v: %v", rel, err)
		}
		if !res.Converged {
			t.Fatalf("%v: no convergence: %+v", rel, res)
		}
		got := make([]float64, a.Rows())
		if err := x.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	full := solve(ReliabilityFull)
	sel := solve(ReliabilitySelective)
	for i := range full {
		if full[i] != sel[i] {
			t.Fatalf("row %d: full %v != selective %v (must be bit-exact fault-free)",
				i, full[i], sel[i])
		}
	}
}

// TestFGMRESSelectiveSkipsInnerVerification measures the acceptance
// criterion directly: under full reliability every inner Richardson
// step performs a verified SpMV, under selective reliability only the
// outer A·Z[j] per Arnoldi step does.
func TestFGMRESSelectiveSkipsInnerVerification(t *testing.T) {
	a, _, b := nonsymSystem(t, 8, 8)
	const innerSteps = 4
	run := func(rel Reliability) (matrixChecks uint64, arnoldi int) {
		m := protect(t, a, core.SECDED64, core.SECDED64)
		var c core.Counters
		m.SetCounters(&c)
		x := core.NewVector(a.Rows(), core.SECDED64)
		bv := core.VectorFromSlice(b, core.SECDED64)
		res, err := FGMRES(MatrixOperator{M: m}, x, bv,
			Options{Tol: 1e-10, InnerSteps: innerSteps, Reliability: rel})
		if err != nil {
			t.Fatalf("%v: %v", rel, err)
		}
		if !res.Converged {
			t.Fatalf("%v: no convergence: %+v", rel, res)
		}
		return c.Snapshot().Checks, res.ArnoldiSteps
	}
	fullChecks, fullSteps := run(ReliabilityFull)
	selChecks, selSteps := run(ReliabilitySelective)
	if fullSteps != selSteps {
		t.Fatalf("step counts diverged fault-free: full %d, selective %d", fullSteps, selSteps)
	}
	// Full mode verifies the matrix once per outer SpMV plus once per
	// inner Richardson SpMV (innerSteps-1 of them per Arnoldi step);
	// selective must shed the inner share entirely.
	if selChecks == 0 {
		t.Fatal("selective mode performed no verified matrix reads at all")
	}
	perFull := float64(fullChecks) / float64(fullSteps)
	perSel := float64(selChecks) / float64(selSteps)
	if perSel*float64(innerSteps)*0.75 > perFull {
		t.Fatalf("selective verified reads per Arnoldi step %.1f not ~1/%d of full %.1f",
			perSel, innerSteps, perFull)
	}
}

// TestFGMRESInnerFaultAbsorbed injects bit flips into the live inner
// scratch through InnerHook and requires the verified outer iteration
// to absorb them: convergence to the same tolerance with the correct
// solution, never silent corruption.
func TestFGMRESInnerFaultAbsorbed(t *testing.T) {
	a, xTrue, b := nonsymSystem(t, 8, 8)
	for _, bit := range []uint{1, 31, 52, 62} {
		m := protect(t, a, core.SECDED64, core.SECDED64)
		x := core.NewVector(a.Rows(), core.SECDED64)
		bv := core.VectorFromSlice(b, core.SECDED64)
		fired := 0
		opt := Options{
			Tol:         1e-10,
			Reliability: ReliabilitySelective,
			InnerHook: func(cycle, j, step int, z []float64) {
				// Strike once, mid-basis, mid-iteration.
				if cycle == 1 && j == 2 && step == 1 {
					z[len(z)/2] = math.Float64frombits(
						math.Float64bits(z[len(z)/2]) ^ (1 << bit))
					fired++
				}
			},
		}
		res, err := FGMRES(MatrixOperator{M: m}, x, bv, opt)
		if err != nil {
			t.Fatalf("bit %d: %v", bit, err)
		}
		if fired == 0 {
			t.Fatalf("bit %d: fault hook never fired", bit)
		}
		if !res.Converged {
			t.Fatalf("bit %d: inner fault not absorbed, no convergence: %+v", bit, res)
		}
		got := make([]float64, a.Rows())
		if err := x.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(got, xTrue); d > 1e-7 {
			t.Fatalf("bit %d: silent corruption: solution off by %g", bit, d)
		}
	}
}

// TestFGMRESInnerNonFiniteSanitized flips the sign/exponent region into
// an Inf and checks the sanitize-at-the-boundary fallback still yields
// the right answer.
func TestFGMRESInnerNonFiniteSanitized(t *testing.T) {
	a, xTrue, b := nonsymSystem(t, 6, 6)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	opt := Options{
		Tol:         1e-10,
		Reliability: ReliabilitySelective,
		InnerHook: func(cycle, j, step int, z []float64) {
			if cycle == 1 && j == 1 && step == 0 {
				z[0] = math.Inf(1)
			}
		},
	}
	res, err := FGMRES(MatrixOperator{M: m}, x, bv, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("non-finite inner result not sanitized: %+v", res)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("solution off by %g", d)
	}
}

func TestFGMRESWithExplicitPreconditioner(t *testing.T) {
	// With an explicit preconditioner the inner solver delegates to it;
	// the SPD system keeps the Jacobi preconditioner meaningful.
	a, xTrue, b := spdSystem(t, 7, 7)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	pre, err := newJacobi(MatrixOperator{M: m}, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := FGMRES(MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10, Preconditioner: pre})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("preconditioned FGMRES did not converge: %+v", res)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("solution off by %g", d)
	}
}

func TestSolveDispatchesFGMRES(t *testing.T) {
	a, xTrue, b := nonsymSystem(t, 6, 6)
	m := protect(t, a, core.SED, core.SED)
	x := core.NewVector(a.Rows(), core.SED)
	bv := core.VectorFromSlice(b, core.SED)
	res, err := Solve(KindFGMRES, MatrixOperator{M: m}, x, bv, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("Solve(KindFGMRES) did not converge: %+v", res)
	}
	got := make([]float64, a.Rows())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(got, xTrue); d > 1e-7 {
		t.Fatalf("solution off by %g", d)
	}
}

func TestParseReliability(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Reliability
	}{{"", ReliabilityFull}, {"full", ReliabilityFull}, {"selective", ReliabilitySelective}} {
		got, err := ParseReliability(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseReliability(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseReliability("bogus"); err == nil {
		t.Fatal("ParseReliability accepted bogus")
	}
}
