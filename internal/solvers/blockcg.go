package solvers

import (
	"fmt"

	"abft/internal/core"
)

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
// aggregate Alphas/Betas are recorded at width one only — wider, the CG
// coefficients are per-column quantities with no batch-wide value.
type BatchResult struct {
	Result
	Columns []ColumnResult
}

// BlockCG solves A X = B for all k right-hand sides of B at once: k
// independent CG recurrences (cgColumn) advance in lockstep, sharing one
// batched verified SpMM per iteration, so the matrix sweep's codeword
// checks — the dominant ABFT cost — are paid once per iteration instead
// of once per right-hand side, and every column's solution is
// bit-identical to a separate CG solve of that column (the recurrences
// are deliberately not coupled: a true block-CG shares search
// directions across columns and converges differently).
// A column that meets the tolerance freezes — its vectors stop updating
// — while the batch keeps iterating until all columns converge or
// MaxIter. The recovery controller covers the full block state: all 3k
// live columns and the per-column recurrence scalars checkpoint and roll
// back together. CG is the same solve at width one.
func BlockCG(a Operator, x, b *core.MultiVector, opt Options) (BatchResult, error) {
	return blockCG("blockcg", a, x, b, opt)
}

// blockCG is the one CG loop, BlockCG's and CG's; its errors name
// solver.
func blockCG(solver string, a Operator, x, b *core.MultiVector, opt Options) (BatchResult, error) {
	if x.K() != b.K() {
		return BatchResult{}, fmt.Errorf("solvers: %s width mismatch: x %d, b %d", solver, x.K(), b.K())
	}
	if x.Len() != b.Len() {
		return BatchResult{}, fmt.Errorf("solvers: %s length mismatch: x %d, b %d", solver, x.Len(), b.Len())
	}
	k := x.K()
	e, err := newEngine(solver, a, x.Col(0), b.Col(0), opt)
	if err != nil {
		return BatchResult{}, err
	}
	// The batched product reads every column's p and writes every
	// column's w: two multivectors over the columns' own work vectors.
	cols := make([]*cgColumn, k)
	ps, ws := make([]*core.Vector, k), make([]*core.Vector, k)
	for j := range cols {
		cols[j] = e.newColumn(x.Col(j), b.Col(j))
		ps[j], ws[j] = cols[j].p, cols[j].w
	}
	p, err := core.WrapMultiVector(ps...)
	if err != nil {
		return BatchResult{}, err
	}
	wv, err := core.WrapMultiVector(ws...)
	if err != nil {
		return BatchResult{}, err
	}

	// R = B - A X through one product.
	err = e.apply(wv, x)
	for j := 0; j < k && err == nil; j++ {
		err = cols[j].init(e)
	}
	if err != nil {
		return BatchResult{Result: e.res}, iterErr(solver, 0, err)
	}
	pws := make([]float64, k)
	// colIt records, as a checkpointable scalar, the iteration each
	// column converged at: rolling back past a column's convergence
	// must rewind its convergence record too.
	colIt := make([]float64, k)
	// settle refreshes the batch-wide view — the worst column's residual
	// norm — and reports whether every column has converged.
	settle := func() bool {
		worst, all := 0.0, true
		for _, c := range cols {
			worst = max(worst, sqrt(c.rr))
			all = all && c.converged(e)
		}
		e.res.ResidualNorm = worst
		return all
	}
	finish := func() BatchResult {
		br := BatchResult{Result: e.res, Columns: make([]ColumnResult, k)}
		for j, c := range cols {
			cr := &br.Columns[j]
			cr.ResidualNorm = sqrt(c.rr)
			cr.Converged = c.converged(e)
			cr.Iterations = e.res.Iterations
			if cr.Converged {
				cr.Iterations = int(colIt[j])
			}
		}
		return br
	}
	if settle() {
		e.res.Converged = true
		return finish(), nil
	}

	for j, c := range cols {
		e.protect(c.x, c.r, c.p)
		e.state(&c.rro, &c.rr, &c.rr0, &colIt[j])
	}
	// e.run wraps surviving errors with the iteration they interrupted.
	e.res, err = e.run(func(it int) (bool, error) {
		// W = A P and every column's p . w once for the whole batch.
		// Frozen columns ride along (their products are discarded) so
		// every iteration makes exactly one verified sweep of the matrix.
		if err := e.product(wv, p, pws); err != nil {
			return false, err
		}
		for j, c := range cols {
			if c.converged(e) {
				continue // frozen: converged at colIt[j]
			}
			alpha, beta, err := c.step(e, pws[j])
			if err != nil {
				return false, err
			}
			if k == 1 {
				e.res.Alphas = append(e.res.Alphas, alpha)
				e.res.Betas = append(e.res.Betas, beta)
			}
			if c.converged(e) {
				colIt[j] = float64(it)
			}
		}
		return settle(), nil
	})
	return finish(), err
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
		opt, err := pcgOptions(a, x.Col(0), opt)
		if err != nil {
			return BatchResult{}, err
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
