package solvers

import "abft/internal/core"

// PCG solves A x = b by explicitly preconditioned conjugate gradients —
// the TeaLeaf tl_preconditioner_type path. It is CG with the
// preconditioner made first-class: Options.Preconditioner supplies
// z = M^-1 r each iteration (the ECC-protected preconditioners of
// internal/precond satisfy the interface), and when none is configured
// a Jacobi preconditioner is built from the operator's verified
// diagonal, so "pcg" always preconditions — unlike KindCG, which runs
// unpreconditioned unless told otherwise.
func PCG(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	opt, err := pcgOptions(a, opt)
	if err != nil {
		return Result{}, err
	}
	return CG(a, x, b, opt)
}

// pcgOptions resolves opt the way "pcg" means it at any width: when no
// preconditioner is configured, a Jacobi preconditioner built from the
// operator's verified diagonal.
func pcgOptions(a Operator, opt Options) (Options, error) {
	if err := opt.Validate(); err != nil {
		return opt, err
	}
	opt = opt.withDefaults()
	if opt.Preconditioner == nil {
		pre, err := NewJacobiPreconditioner(a, opt.Workers)
		if err != nil {
			return opt, err
		}
		opt.Preconditioner = pre
	}
	return opt, nil
}
