package precond_test

import (
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/solvers"
)

// The solves live in package precond_test because solvers imports
// precond (its default PCG preconditioner is precond's Jacobi).

// TestPCGConvergesFaster: every preconditioner must cut PCG iterations
// below plain CG. Plain Jacobi included: the insulated boundary gives the
// stencil diagonals of 3, 4 and 5, so diagonal scaling is not a multiple
// of the identity and must save iterations (33 against CG's 35; a Jacobi
// that degenerated to the identity would tie).
func TestPCGConvergesFaster(t *testing.T) {
	src := precond.MatrixForTest()
	pm, err := op.New(op.CSR, src, op.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := solvers.MatrixOperator{M: pm, Workers: 1}
	solve := func(pre precond.Preconditioner) solvers.Result {
		b := core.VectorFromSlice(precond.VectorForTest(src.Rows()), core.None)
		x := core.NewVector(src.Rows(), core.None)
		opt := solvers.Options{Tol: 1e-10, MaxIter: 10000}
		if pre != nil {
			opt.Preconditioner = pre
		}
		res, err := solvers.CG(a, x, b, opt)
		if err != nil || !res.Converged {
			t.Fatalf("solve: %v converged=%v", err, res.Converged)
		}
		return res
	}
	base := solve(nil)
	for _, k := range []precond.Kind{precond.Jacobi, precond.BlockJacobi, precond.SGS} {
		p, err := precond.New(k, src, precond.Options{Scheme: core.SECDED64})
		if err != nil {
			t.Fatal(err)
		}
		res := solve(p)
		if res.Iterations >= base.Iterations {
			t.Errorf("%v: %d iterations, plain CG %d", k, res.Iterations, base.Iterations)
		}
	}
}

// benchmarkPCG times a full preconditioned CG solve of a protected
// Poisson operator; the CI benchmark smoke step runs one iteration of
// each to catch bit-rot in the preconditioner paths.
func benchmarkPCG(b *testing.B, kind precond.Kind) {
	src := csr.Laplacian2D(32, 32)
	pm, err := op.New(op.CSR, src, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
	if err != nil {
		b.Fatal(err)
	}
	a := solvers.MatrixOperator{M: pm, Workers: 1}
	opt := solvers.Options{Tol: 1e-8, MaxIter: 10000}
	if kind != precond.None {
		pre, err := precond.New(kind, src, precond.Options{Scheme: core.SECDED64})
		if err != nil {
			b.Fatal(err)
		}
		opt.Preconditioner = pre
	}
	rhs := precond.VectorForTest(src.Rows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := core.NewVector(src.Rows(), core.SECDED64)
		rv := core.VectorFromSlice(rhs, core.SECDED64)
		res, err := solvers.CG(a, x, rv, opt)
		if err != nil || !res.Converged {
			b.Fatalf("solve: %v converged=%v", err, res.Converged)
		}
	}
}

func BenchmarkPCGBaselineCG(b *testing.B) { benchmarkPCG(b, precond.None) }
func BenchmarkPCGJacobi(b *testing.B)     { benchmarkPCG(b, precond.Jacobi) }
func BenchmarkPCGBlockJacobi(b *testing.B) {
	benchmarkPCG(b, precond.BlockJacobi)
}
func BenchmarkPCGSGS(b *testing.B) { benchmarkPCG(b, precond.SGS) }
