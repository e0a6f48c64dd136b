package solvers

import "abft/internal/core"

// chebPreconditioner approximates z = A^-1 r with a fixed number of
// Chebyshev iterations on A z = r from z = 0 — the polynomial
// preconditioner at the heart of PPCG (TeaLeaf's tl_ppcg_inner_steps).
type chebPreconditioner struct {
	cheb  *chebRecurrence
	steps int
	rr, p *core.Vector
}

func newChebPreconditioner(a Operator, model *core.Vector, eigMin, eigMax float64, steps, workers int) *chebPreconditioner {
	return &chebPreconditioner{
		cheb:  newChebRecurrence(a, nil, eigMin, eigMax, core.FusedOptions{Workers: workers}, newTemp(model), nil),
		steps: steps,
		rr:    newTemp(model),
		p:     newTemp(model),
	}
}

// Apply runs the inner Chebyshev smoothing: z starts at 0 and absorbs
// `steps` polynomial corrections toward A^-1 r.
func (c *chebPreconditioner) Apply(z, r *core.Vector) error {
	z.Fill(0)
	if _, err := core.Pass(c.cheb.opt, core.DotOf{}, core.Lin{Dst: c.rr, X: r}); err != nil {
		return err
	}
	if err := c.cheb.start(c.rr, c.p); err != nil {
		return err
	}
	for j := 0; j < c.steps; j++ {
		if _, err := c.cheb.step(z, c.rr, c.p, false); err != nil {
			return err
		}
	}
	return nil
}

// PPCG solves A x = b with polynomially preconditioned conjugate
// gradients (TeaLeaf's tl_use_ppcg path): CG outer iterations whose
// preconditioner is a short Chebyshev smoothing, trading extra SpMVs per
// iteration for far fewer iterations and dot products. The polynomial is
// the preconditioner, so any externally configured Preconditioner is
// ignored (use KindPCG to combine CG with an explicit preconditioner).
func PPCG(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	if err := opt.Validate(); err != nil {
		return Result{}, err
	}
	opt = opt.withDefaults()
	opt.Preconditioner = nil
	eigMin, eigMax, err := estimateSpectrum(a, x, b, opt)
	if err != nil {
		return Result{}, err
	}
	inner := opt
	inner.Preconditioner = newChebPreconditioner(a, x, eigMin, eigMax, opt.InnerSteps, opt.Workers)
	res, err := CG(a, x, b, inner)
	res.EigMin, res.EigMax = eigMin, eigMax
	return res, err
}
