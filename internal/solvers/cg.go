package solvers

import "abft/internal/core"

// cgColumn is one right-hand side's conjugate-gradient recurrence: its
// operands, its work vectors and its scalars. The one CG loop
// (blockCG) advances k of them in lockstep, and CG is that loop at
// width one; what differs between widths is only the width of the
// product that yields w = A p and p . w (engine.product), so a column
// of a batch performs exactly the kernel operations a lone solve does,
// in the same order, and is bit-identical to it.
type cgColumn struct {
	x, b *core.Vector
	// r, p and w are the residual, the search direction and A p; z is
	// M^-1 r, nil unpreconditioned. w and z are scratch (fully rewritten
	// — and thereby re-encoded — every iteration); x, r, p and the
	// scalars are the dynamic state a checkpoint must cover.
	r, p, w, z *core.Vector
	// rro is the recurrence's r.z, rr the stopping rule's r.r and rr0
	// its initial value.
	rro, rr, rr0 float64
	// upd is the step's x += alpha p ; p = z + beta p, deferred onto p
	// when the product comes next.
	upd core.UpdateRequest
}

// newColumn allocates the work vectors of the recurrence for x and b
// and registers its update with the engine.
func (e *engine) newColumn(x, b *core.Vector) *cgColumn {
	c := &cgColumn{x: x, b: b, r: newTemp(x), p: newTemp(x), w: newTemp(x)}
	if e.opt.Preconditioner != nil {
		c.z = newTemp(x)
	}
	e.ups = append(e.ups, &c.upd)
	return c
}

// precondition applies z = M^-1 r and returns the vector the recurrence
// continues with: z, or r itself unpreconditioned.
func (c *cgColumn) precondition(e *engine) (*core.Vector, error) {
	if c.z == nil {
		return c.r, nil
	}
	return c.z, e.opt.Preconditioner.Apply(c.z, c.r)
}

// init forms the initial residual from w = A x, which the driver has
// computed. Unpreconditioned, r = p = b - w and r.r are one pass, and
// r.z is that r.r; preconditioned, r = b - w and r.r are one pass, then
// z = M^-1 r, then p = z and r.z another.
func (c *cgColumn) init(e *engine) error {
	resid := core.Lin{Dst: c.r, A: 1, X: c.b, B: -1, Y: c.w}
	rr := core.DotOf{A: c.r, B: c.r}
	var err error
	if c.z == nil {
		dir := resid
		dir.Dst = c.p
		c.rr, err = e.pass(rr, resid, dir)
		c.rro, c.rr0 = c.rr, c.rr
		return err
	}
	if c.rr, err = e.pass(rr, resid); err != nil {
		return err
	}
	if _, err := c.precondition(e); err != nil {
		return err
	}
	c.rro, err = e.pass(core.DotOf{A: c.r, B: c.z}, core.Lin{Dst: c.p, X: c.z})
	c.rr0 = c.rr
	return err
}

// step advances the recurrence by one iteration from w = A p and p . w,
// which blockCG has computed (engine.product), and returns the
// iteration's CG coefficients. The residual pass reads r and w only; x
// += alpha p and p = z + beta p are one pass, which nothing between it
// and the next product reads x for. When that product comes next
// (next, engine.productNext) and the column has not converged, the
// pass is deferred onto p and runs as the product's read of p
// (core.UpdateRequest); otherwise it runs here.
func (c *cgColumn) step(e *engine, pw float64, next bool) (alpha, beta float64, err error) {
	if pw == 0 {
		return 0, 0, errBreakdown
	}
	alpha = c.rro / pw
	// r -= alpha w ; r.r — one fused verified pass
	rrNew, err := e.updateNorm(c.r, -alpha, c.w, 1, c.r)
	if err != nil {
		return 0, 0, err
	}
	zed, err := c.precondition(e)
	if err != nil {
		return 0, 0, err
	}
	// Unpreconditioned, r.z is the fused pass's r.r; preconditioned,
	// the recurrence needs r.z while the stopping rule keeps r.r.
	rrn := rrNew
	if c.z != nil {
		if rrn, err = e.dot(c.r, zed); err != nil {
			return 0, 0, err
		}
	}
	beta = rrn / c.rro
	c.upd.Defer(c.p, e.fuse,
		core.Lin{Dst: c.x, A: alpha, X: c.p, B: 1, Y: c.x},
		core.Lin{Dst: c.p, A: 1, X: zed, B: beta, Y: c.p})
	if !next || e.converged(rrNew, c.rr0) {
		if err := c.upd.Run(); err != nil {
			return 0, 0, err
		}
	}
	c.rro, c.rr = rrn, rrNew
	return alpha, beta, nil
}

// converged evaluates the stopping rule on the column's residual.
func (c *cgColumn) converged(e *engine) bool { return e.converged(c.rr, c.rr0) }

// CG solves A x = b by preconditioned conjugate gradients, the solver the
// paper instruments (TeaLeaf's tl_use_cg path). x carries the initial
// guess in and the solution out. All vector traffic flows through the
// ABFT-protected kernels, so every iteration checks the data it touches;
// the iteration engine's recovery controller (Options.Recovery) can roll
// the recurrence back past detected uncorrectable faults in x, r or p.
// It is blockCG, the one CG loop, at width one.
func CG(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	return widthOne("cg", a, x, b, opt)
}

// widthOne runs one right-hand side as a width-one batch of blockCG,
// whose errors name solver.
func widthOne(solver string, a Operator, x, b *core.Vector, opt Options) (Result, error) {
	xm, err := core.WrapMultiVector(x)
	if err != nil {
		return Result{}, err
	}
	bm, err := core.WrapMultiVector(b)
	if err != nil {
		return Result{}, err
	}
	br, err := blockCG(solver, a, xm, bm, opt)
	return br.Result, err
}
