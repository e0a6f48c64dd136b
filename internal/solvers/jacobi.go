package solvers

import (
	"errors"
	"math"

	"abft/internal/core"
)

// errBreakdown reports a numerical breakdown (zero curvature or diagonal).
var errBreakdown = errors.New("solvers: numerical breakdown")

func sqrt(x float64) float64 { return math.Sqrt(x) }

// Jacobi solves A x = b with the damped-free Jacobi iteration
// x += D^-1 (b - A x), TeaLeaf's tl_use_jacobi path. It converges slowly
// but exercises the same protected kernels with a different access mix.
// D^-1 is precond's protected Jacobi, as PCG's default (newJacobi).
// The recurrence reads b every iteration, so the recovery controller
// checkpoints it alongside x: a rollback restores (and re-encodes) both.
func Jacobi(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	e, err := newEngine("jacobi", a, x, b, opt)
	if err != nil {
		return Result{}, err
	}
	pre, err := newJacobi(a, x, e.w)
	if err != nil {
		return e.res, err
	}
	r := e.temp()
	t := e.temp()

	rr0 := -1.0
	e.protect(x, b)
	e.state(&rr0)
	return e.run(func(it int) (bool, error) {
		if err := a.Apply(t, x); err != nil {
			return false, err
		}
		rr, err := e.updateNorm(r, 1, b, -1, t)
		if err != nil {
			return false, err
		}
		if rr0 < 0 {
			rr0 = rr
		}
		e.res.ResidualNorm = sqrt(rr)
		if e.converged(rr, rr0) {
			return true, nil
		}
		if err := pre.Apply(t, r); err != nil {
			return false, err
		}
		if _, err := e.pass(core.DotOf{}, core.Lin{Dst: x, A: 1, X: t, B: 1, Y: x}); err != nil {
			return false, err
		}
		return false, nil
	})
}
