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
	w := e.w

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
	c := newChebRecurrence(a, opt.Preconditioner, eigMin, eigMax, w, t, z)

	// r = b - A x ; p = z / theta with z = M^-1 r (or r unpreconditioned)
	if err := a.Apply(t, x); err != nil {
		return e.res, iterErr("chebyshev", 0, err)
	}
	if err := core.Waxpby(r, 1, b, -1, t, w); err != nil {
		return e.res, iterErr("chebyshev", 0, err)
	}
	rr0, err := e.dot(r, r)
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
		if err := c.step(x, r, p); err != nil {
			return false, err
		}
		rr, err := e.dot(r, r)
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
// state, which the Chebyshev solver checkpoints with x, r and p.
type chebRecurrence struct {
	a                        Operator
	pre                      Preconditioner
	theta, delta, sigma, rho float64
	w                        int
	t, z                     *core.Vector
}

func newChebRecurrence(a Operator, pre Preconditioner, eigMin, eigMax float64, w int, t, z *core.Vector) *chebRecurrence {
	theta := (eigMax + eigMin) / 2
	delta := (eigMax - eigMin) / 2
	return &chebRecurrence{a: a, pre: pre, theta: theta, delta: delta, sigma: theta / delta, w: w, t: t, z: z}
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
	return core.Waxpby(p, 1/c.theta, z, 0, z, c.w)
}

// step advances the recurrence once: x += p ; r -= A p ; then
// p = rho' rho p + (2 rho' / delta) z with rho' = 1 / (2 sigma - rho).
func (c *chebRecurrence) step(x, r, p *core.Vector) error {
	if err := core.Axpy(x, 1, p, c.w); err != nil {
		return err
	}
	if err := c.a.Apply(c.t, p); err != nil {
		return err
	}
	if err := core.Axpy(r, -1, c.t, c.w); err != nil {
		return err
	}
	z, err := c.smooth(r)
	if err != nil {
		return err
	}
	rhoNew := 1 / (2*c.sigma - c.rho)
	if err := core.Waxpby(p, rhoNew*c.rho, p, 2*rhoNew/c.delta, z, c.w); err != nil {
		return err
	}
	c.rho = rhoNew
	return nil
}
