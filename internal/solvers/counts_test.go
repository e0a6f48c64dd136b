package solvers

import (
	"testing"

	"abft/internal/core"
)

// TestTeaLeafCheckCountsPinned pins the codeword checks of the paper's
// TeaLeaf solvers (and FGMRES) on spdSystem(8, 8) under SECDED64: 64
// rows, 8 vector blocks, so one whole-vector read is 64 vector checks.
// Vector checks count on x and b (every work vector inherits x's
// counters); matrix checks on the matrix, element and row-pointer
// codewords together.
//
// With every vector update one core.Pass (DESIGN.md section 29) the
// vector counts fell from 34,112 / 40,320 / 47,936 / 16,640; the matrix
// counts did not move:
//
//   - Chebyshev, 37 iterations: r.r comes from the r -= A p pass (-128
//     an iteration) and x += p shares the p update's read of p (-64):
//     37 x 192 = 7,104. Set-up forms r = b - A x with r.r (-128) and
//     p = z / theta + 0 z reads z once (-64): 34,112 - 7,296 = 26,816.
//   - PPCG, 10 iterations: each of its 11 polynomial applications (one
//     at set-up, one an iteration) reads z once at start (-64) and
//     shares p in each of 4 steps (-4 x 64): 40,320 - 11 x 320 = 36,800.
//   - Jacobi, 94 iterations: r = b - A x and r.r in one pass (-128 an
//     iteration): 47,936 - 94 x 128 = 35,904.
//   - FGMRES, one cycle of 9 Arnoldi steps: v0 = r / beta + 0 r reads r
//     once (-64), and each step's w.w and v = w / h + 0 w read w once
//     (-128): 16,640 - 64 - 9 x 128 = 15,424.
//
// Jacobi's inverse diagonal is precond's protected vector since DESIGN.md
// section 35, counted on x's counters: each of its 93 applications (every
// iteration but the converging one) reads its 8 blocks once, 8 checks a
// block: 35,904 + 93 x 64 = 41,856. FGMRES's inner Richardson scales by
// the same protected Jacobi since section 36: 9 inner solves of 4 steps,
// one read of D^-1 a step: 15,424 + 36 x 64 = 17,728.
func TestTeaLeafCheckCountsPinned(t *testing.T) {
	a, _, b := spdSystem(t, 8, 8)
	cases := []struct {
		name           string
		solve          func(Operator, *core.Vector, *core.Vector, Options) (Result, error)
		opt            Options
		iters          int
		vector, matrix uint64
	}{
		{"chebyshev", Chebyshev, Options{Tol: 1e-9, MaxIter: 5000, EigenIters: 30}, 37, 26_816, 23_298},
		{"ppcg", PPCG, Options{Tol: 1e-9, EigenIters: 30, InnerSteps: 4}, 10, 36_800, 29_299},
		{"jacobi", Jacobi, Options{Tol: 1e-9, MaxIter: 5000}, 94, 41_856, 33_535},
		{"fgmres", FGMRES, Options{Tol: 1e-9}, 1, 17_728, 13_767},
	}
	for _, c := range cases {
		m := protect(t, a, core.SECDED64, core.SECDED64)
		var vec, mat core.Counters
		m.SetCounters(&mat)
		x := core.NewVector(a.Rows(), core.SECDED64)
		bv := core.VectorFromSlice(b, core.SECDED64)
		x.SetCounters(&vec)
		bv.SetCounters(&vec)
		res, err := c.solve(MatrixOperator{M: m, Workers: 1}, x, bv, c.opt)
		if err != nil || !res.Converged {
			t.Fatalf("%s: %v, %+v", c.name, err, res)
		}
		if res.Iterations != c.iters || vec.Checks() != c.vector || mat.Checks() != c.matrix {
			t.Errorf("%s: %d iterations, %d vector checks, %d matrix checks; want %d, %d, %d",
				c.name, res.Iterations, vec.Checks(), mat.Checks(), c.iters, c.vector, c.matrix)
		}
	}
}
