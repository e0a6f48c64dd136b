package solvers

import (
	"fmt"

	"abft/internal/core"
)

// BatchOperator is an optional Operator capability: an operator that can
// multiply a whole multivector in one verified pass (the batched SpMM
// kernels of the storage formats and the sharded composite) exposes it
// so BlockCG amortises the matrix-side codeword checks over the batch.
// Operators without it fall back to one Apply per column — correct, but
// paying the full verification cost per right-hand side.
type BatchOperator interface {
	ApplyBatch(dst, x *core.MultiVector) error
}

// operatorApplyBatch computes dst = A x for every column the way the
// operator prefers: through the batched kernel when the operator (or the
// matrix behind a MatrixOperator) provides one, otherwise one verified
// single-RHS product per column. MatrixOperator is unwrapped the way
// operatorDot is, so the batched path keeps honouring the solve
// Options' worker count.
func operatorApplyBatch(op Operator, dst, x *core.MultiVector) error {
	if mo, ok := op.(MatrixOperator); ok {
		if ba, ok := mo.M.(core.BatchApplier); ok {
			return ba.ApplyBatch(dst, x, mo.Workers)
		}
	} else if ba, ok := op.(BatchOperator); ok {
		return ba.ApplyBatch(dst, x)
	}
	for j := 0; j < x.K(); j++ {
		if err := op.Apply(dst.Col(j), x.Col(j)); err != nil {
			return err
		}
	}
	return nil
}

// ColumnResult reports the outcome of one right-hand side of a batched
// solve.
type ColumnResult struct {
	// Iterations is the iteration the column converged at (the whole
	// batch's iteration count when it did not converge).
	Iterations int
	// ResidualNorm is the column's final residual L2 norm.
	ResidualNorm float64
	// Converged reports whether the column met the tolerance.
	Converged bool
}

// BatchResult reports the outcome of a batched solve: the embedded
// Result carries the batch-wide view (iterations of the shared loop, the
// worst column's residual norm, checkpoint/rollback accounting for the
// whole block state), Columns the per-right-hand-side outcomes. The
// aggregate Alphas/Betas are left empty — the CG coefficients are
// per-column quantities with no meaningful batch-wide value.
type BatchResult struct {
	Result
	Columns []ColumnResult
}

// newTempBatch allocates a work multivector whose column j matches
// column j of x in length, protection scheme and counters.
func newTempBatch(x *core.MultiVector) *core.MultiVector {
	cols := make([]*core.Vector, x.K())
	for j := range cols {
		cols[j] = newTemp(x.Col(j))
	}
	mv, err := core.WrapMultiVector(cols...)
	if err != nil {
		panic(err) // unreachable: columns are built uniform
	}
	return mv
}

// BlockCG solves A X = B for all k right-hand sides of B at once: k
// independent CG recurrences advance in lockstep, sharing one batched
// verified SpMM per iteration, so the matrix sweep's codeword checks —
// the dominant ABFT cost — are paid once per iteration instead of once
// per right-hand side. Each column's recurrence performs exactly the
// kernel operations single-RHS CG would, in the same order, so every
// column's solution is bit-identical to a separate CG solve of that
// column (the recurrences are deliberately not coupled: a true block-CG
// shares search directions across columns and converges differently).
// A column that meets the tolerance freezes — its vectors stop updating
// — while the batch keeps iterating until all columns converge or
// MaxIter. The recovery controller covers the full block state: all 3k
// live columns and the per-column recurrence scalars checkpoint and roll
// back together.
func BlockCG(a Operator, x, b *core.MultiVector, opt Options) (BatchResult, error) {
	if x.K() != b.K() {
		return BatchResult{}, fmt.Errorf("solvers: BlockCG width mismatch: x %d, b %d", x.K(), b.K())
	}
	if x.Len() != b.Len() {
		return BatchResult{}, fmt.Errorf("solvers: BlockCG length mismatch: x %d, b %d", x.Len(), b.Len())
	}
	k := x.K()
	e, err := newEngine("blockcg", a, x.Col(0), b.Col(0), opt)
	if err != nil {
		return BatchResult{}, err
	}
	opt = e.opt
	w := e.w

	r := newTempBatch(x)
	p := newTempBatch(x)
	wv := newTempBatch(x)
	var z *core.MultiVector
	if opt.Preconditioner != nil {
		z = newTempBatch(x)
	}

	// R = B - A X through one batched product.
	if err := operatorApplyBatch(a, wv, x); err != nil {
		return BatchResult{Result: e.res}, iterErr("blockcg", 0, err)
	}
	rro := make([]float64, k)
	rr := make([]float64, k)
	rr0 := make([]float64, k)
	// colIt records, as a checkpointable scalar, the iteration each
	// column converged at: rolling back past a column's convergence
	// must rewind its convergence record too.
	colIt := make([]float64, k)
	for j := 0; j < k; j++ {
		// r = b - A x with r.r from the same fused pass.
		if rr[j], err = e.updateNorm(r.Col(j), 1, b.Col(j), -1, wv.Col(j)); err != nil {
			return BatchResult{Result: e.res}, iterErr("blockcg", 0, err)
		}
		zed := r.Col(j)
		if z != nil {
			if err := opt.Preconditioner.Apply(z.Col(j), r.Col(j)); err != nil {
				return BatchResult{Result: e.res}, iterErr("blockcg", 0, err)
			}
			zed = z.Col(j)
		}
		if err := core.Copy(p.Col(j), zed, w); err != nil {
			return BatchResult{Result: e.res}, iterErr("blockcg", 0, err)
		}
		// Unpreconditioned, r.z is exactly the fused pass's r.r.
		rro[j] = rr[j]
		if z != nil {
			if rro[j], err = e.dot(r.Col(j), zed); err != nil {
				return BatchResult{Result: e.res}, iterErr("blockcg", 0, err)
			}
		}
		rr0[j] = rr[j]
	}
	batchNorm := func() float64 {
		worst := 0.0
		for j := 0; j < k; j++ {
			if n := sqrt(rr[j]); n > worst {
				worst = n
			}
		}
		return worst
	}
	allDone := func() bool {
		for j := 0; j < k; j++ {
			if !e.converged(rr[j], rr0[j]) {
				return false
			}
		}
		return true
	}
	finish := func() BatchResult {
		br := BatchResult{Result: e.res, Columns: make([]ColumnResult, k)}
		for j := 0; j < k; j++ {
			c := &br.Columns[j]
			c.ResidualNorm = sqrt(rr[j])
			c.Converged = e.converged(rr[j], rr0[j])
			if c.Converged {
				c.Iterations = int(colIt[j])
			} else {
				c.Iterations = e.res.Iterations
			}
		}
		return br
	}
	e.res.ResidualNorm = batchNorm()
	if allDone() {
		e.res.Converged = true
		return finish(), nil
	}

	// wv and z are scratch (fully rewritten — and thereby re-encoded —
	// every iteration); every column of X, R and P plus the per-column
	// recurrence scalars are the dynamic state a checkpoint must cover.
	for j := 0; j < k; j++ {
		e.protect(x.Col(j), r.Col(j), p.Col(j))
		e.state(&rro[j], &rr[j], &rr0[j], &colIt[j])
	}
	// e.run wraps surviving errors with the iteration they interrupted.
	res, runErr := e.run(func(it int) (bool, error) {
		// W = A P once for the whole batch. Frozen columns ride along
		// (their products are discarded) so every iteration makes exactly
		// one verified sweep of the matrix.
		if err := operatorApplyBatch(a, wv, p); err != nil {
			return false, err
		}
		for j := 0; j < k; j++ {
			if e.converged(rr[j], rr0[j]) {
				continue // frozen: converged at colIt[j]
			}
			pw, err := e.dot(p.Col(j), wv.Col(j))
			if err != nil {
				return false, err
			}
			if pw == 0 {
				return false, errBreakdown
			}
			alpha := rro[j] / pw
			// x += alpha p ; r -= alpha w ; r.r — one fused verified pass.
			rrNew, err := e.axpyDot(x.Col(j), alpha, p.Col(j), r.Col(j), wv.Col(j))
			if err != nil {
				return false, err
			}
			zed := r.Col(j)
			if z != nil {
				if err := opt.Preconditioner.Apply(z.Col(j), r.Col(j)); err != nil {
					return false, err
				}
				zed = z.Col(j)
			}
			// Unpreconditioned, r.z is the fused pass's r.r; preconditioned,
			// the recurrence needs r.z while the stopping rule keeps r.r.
			rrn := rrNew
			if z != nil {
				if rrn, err = e.dot(r.Col(j), zed); err != nil {
					return false, err
				}
			}
			beta := rrn / rro[j]
			if err := core.Xpby(p.Col(j), zed, beta, w); err != nil {
				return false, err
			}
			rro[j] = rrn
			rr[j] = rrNew
			if e.converged(rr[j], rr0[j]) {
				colIt[j] = float64(it)
			}
		}
		e.res.ResidualNorm = batchNorm()
		return allDone(), nil
	})
	e.res = res
	return finish(), runErr
}

// SolveBatch dispatches a k-right-hand-side solve to the named solver.
// The CG family (cg, pcg, blockcg) runs through BlockCG — one batched
// verified SpMM per iteration, per-column results bit-identical to k
// independent solves — with pcg defaulting the preconditioner exactly as
// PCG does. Other solvers fall back to k independent single-RHS solves
// with aggregated bookkeeping.
func SolveBatch(kind Kind, a Operator, x, b *core.MultiVector, opt Options) (BatchResult, error) {
	switch kind {
	case KindCG, KindBlockCG:
		return BlockCG(a, x, b, opt)
	case KindPCG:
		if err := opt.Validate(); err != nil {
			return BatchResult{}, err
		}
		opt = opt.withDefaults()
		if opt.Preconditioner == nil {
			pre, err := NewJacobiPreconditioner(a, opt.Workers)
			if err != nil {
				return BatchResult{}, err
			}
			opt.Preconditioner = pre
		}
		return BlockCG(a, x, b, opt)
	default:
		var br BatchResult
		br.Converged = true
		for j := 0; j < x.K(); j++ {
			res, err := Solve(kind, a, x.Col(j), b.Col(j), opt)
			if err != nil {
				br.Converged = false
				return br, err
			}
			br.Columns = append(br.Columns, ColumnResult{
				Iterations:   res.Iterations,
				ResidualNorm: res.ResidualNorm,
				Converged:    res.Converged,
			})
			if res.Iterations > br.Iterations {
				br.Iterations = res.Iterations
			}
			if res.ResidualNorm > br.ResidualNorm {
				br.ResidualNorm = res.ResidualNorm
			}
			br.Converged = br.Converged && res.Converged
			br.Checkpoints += res.Checkpoints
			br.Rollbacks += res.Rollbacks
			br.RecomputedIterations += res.RecomputedIterations
		}
		return br, nil
	}
}
