package solvers

import (
	"abft/internal/core"
	"abft/internal/precond"
)

// PCG solves A x = b by explicitly preconditioned conjugate gradients —
// the TeaLeaf tl_preconditioner_type path. It is CG with the
// preconditioner made first-class: Options.Preconditioner supplies
// z = M^-1 r each iteration (the ECC-protected preconditioners of
// internal/precond satisfy the interface), and when none is configured
// precond's protected Jacobi is built from the operator's verified
// diagonal in x's scheme, so "pcg" always preconditions — unlike
// KindCG, which runs unpreconditioned unless told otherwise.
func PCG(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	opt, err := pcgOptions(a, x, opt)
	if err != nil {
		return Result{}, err
	}
	return CG(a, x, b, opt)
}

// pcgOptions resolves opt the way "pcg" means it at any width: when no
// preconditioner is configured, the protected Jacobi of newJacobi.
func pcgOptions(a Operator, x *core.Vector, opt Options) (Options, error) {
	if err := opt.Validate(); err != nil {
		return opt, err
	}
	opt = opt.withDefaults()
	if opt.Preconditioner == nil {
		pre, err := newJacobi(a, x, opt.Workers)
		if err != nil {
			return opt, err
		}
		opt.Preconditioner = pre
	}
	return opt, nil
}

// newJacobi returns the D^-1 every solver scales by: the operator's
// resident Jacobi when it keeps one (ResidentJacobi), applied as its
// owner set it up; otherwise precond's Jacobi built from a's verified
// diagonal, stored in x's scheme, counting its checks on x's counters
// and applied with the solve's worker count.
func newJacobi(a Operator, x *core.Vector, workers int) (precond.Preconditioner, error) {
	if r, ok := capability[ResidentJacobi](a); ok {
		return r.Jacobi()
	}
	d := make([]float64, a.Rows())
	if err := a.Diagonal(d); err != nil {
		return nil, err
	}
	pre, err := precond.NewJacobi(d, precond.Options{Scheme: x.Scheme(), Workers: workers})
	if err != nil {
		return nil, err
	}
	pre.SetCounters(x.Counters())
	return pre, nil
}
