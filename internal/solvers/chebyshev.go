package solvers

import "abft/internal/core"

// Chebyshev solves A x = b with the Chebyshev semi-iteration (TeaLeaf's
// tl_use_chebyshev path): a short CG run estimates the spectrum, then the
// fixed three-term recurrence iterates without inner products — the same
// structure TeaLeaf uses to cut synchronisation costs on large machines.
//
// With Options.Preconditioner set, the recurrence smooths the
// preconditioned residual z = M^-1 r instead of r: the semi-iteration
// then targets the spectrum of M^-1 A (which the CG bootstrap estimates,
// since its probe runs preconditioned too), so a protected
// preconditioner tightens the eigenvalue interval and cuts iterations
// while the stopping rule still watches the true residual.
func Chebyshev(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	e, err := newEngine("chebyshev", a, x, b, opt)
	if err != nil {
		return Result{}, err
	}
	opt = e.opt

	eigMin, eigMax, err := estimateSpectrum(a, x, b, opt)
	if err != nil {
		return e.res, err
	}
	e.res.EigMin, e.res.EigMax = eigMin, eigMax

	r := e.temp()
	p := e.temp()
	t := e.temp()
	var z *core.Vector
	if opt.Preconditioner != nil {
		z = e.temp()
	}
	c := newChebRecurrence(a, opt.Preconditioner, eigMin, eigMax, e.fuse, t, z)

	// r = b - A x and r.r in one pass; p = z / theta with z = M^-1 r (or
	// r unpreconditioned)
	if err := a.Apply(t, x); err != nil {
		return e.res, iterErr("chebyshev", 0, err)
	}
	rr0, err := e.updateNorm(r, 1, b, -1, t)
	if err != nil {
		return e.res, iterErr("chebyshev", 0, err)
	}
	if e.converged(rr0, rr0) {
		e.res.Converged = true
		e.res.ResidualNorm = sqrt(rr0)
		return e.res, nil
	}
	if err := c.start(r, p); err != nil {
		return e.res, iterErr("chebyshev", 0, err)
	}

	// t and z are scratch; the three-term recurrence lives in x, r, p
	// and the scalar rho.
	e.protect(x, r, p)
	e.state(&c.rho, &rr0)
	return e.run(func(it int) (bool, error) {
		rr, err := c.step(x, r, p, true)
		if err != nil {
			return false, err
		}
		e.res.ResidualNorm = sqrt(rr)
		return e.converged(rr, rr0), nil
	})
}

// chebRecurrence is the semi-iteration's three-term recurrence over the
// eigenvalue interval [eigMin, eigMax], shared by the Chebyshev solver
// and PPCG's polynomial preconditioner. The caller owns x, r and p; t
// (and z, when pre is set) are scratch. rho is the recurrence's scalar
// state, which the Chebyshev solver checkpoints with x, r and p. Its
// vector passes run under opt, whose decomposition a returned r.r
// reduces over.
type chebRecurrence struct {
	a                        Operator
	pre                      Preconditioner
	theta, delta, sigma, rho float64
	opt                      core.FusedOptions
	t, z                     *core.Vector
}

func newChebRecurrence(a Operator, pre Preconditioner, eigMin, eigMax float64, opt core.FusedOptions, t, z *core.Vector) *chebRecurrence {
	theta := (eigMax + eigMin) / 2
	delta := (eigMax - eigMin) / 2
	return &chebRecurrence{a: a, pre: pre, theta: theta, delta: delta, sigma: theta / delta, opt: opt, t: t, z: z}
}

// smooth returns z = M^-1 r, or r itself unpreconditioned.
func (c *chebRecurrence) smooth(r *core.Vector) (*core.Vector, error) {
	if c.pre == nil {
		return r, nil
	}
	return c.z, c.pre.Apply(c.z, r)
}

// start opens the recurrence: p = z / theta and rho = 1 / sigma.
func (c *chebRecurrence) start(r, p *core.Vector) error {
	z, err := c.smooth(r)
	if err != nil {
		return err
	}
	c.rho = 1 / c.sigma
	_, err = core.Pass(c.opt, core.DotOf{}, core.Lin{Dst: p, A: 1 / c.theta, X: z, B: 0, Y: z})
	return err
}

// step advances the recurrence once in two vector passes: r -= A p,
// returning r.r when norm is set; then x += p and
// p = rho' rho p + (2 rho' / delta) z with rho' = 1 / (2 sigma - rho),
// which read the old p once. Nothing in between reads x, and no
// checkpoint or state hook falls inside a step, so updating x last
// changes no iterate and no snapshot.
func (c *chebRecurrence) step(x, r, p *core.Vector, norm bool) (float64, error) {
	if err := c.a.Apply(c.t, p); err != nil {
		return 0, err
	}
	var dot core.DotOf
	if norm {
		dot = core.DotOf{A: r, B: r}
	}
	rr, err := core.Pass(c.opt, dot, core.Lin{Dst: r, A: -1, X: c.t, B: 1, Y: r})
	if err != nil {
		return 0, err
	}
	z, err := c.smooth(r)
	if err != nil {
		return 0, err
	}
	rhoNew := 1 / (2*c.sigma - c.rho)
	_, err = core.Pass(c.opt, core.DotOf{},
		core.Lin{Dst: x, A: 1, X: p, B: 1, Y: x},
		core.Lin{Dst: p, A: rhoNew * c.rho, X: p, B: 2 * rhoNew / c.delta, Y: z})
	if err != nil {
		return 0, err
	}
	c.rho = rhoNew
	return rr, nil
}
