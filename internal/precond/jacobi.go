package precond

import (
	"abft/internal/core"
	"abft/internal/par"
)

// jacobiPre is the Jacobi (inverse-diagonal) preconditioner: its setup
// product 1/diag(A) lives in a codeword-protected vector, so every
// Apply verifies the diagonal it scales by and a bit flip in resident
// preconditioner memory is corrected or detected, never silently
// folded into the Krylov basis.
type jacobiPre struct{ inverse }

// NewJacobi builds the Jacobi preconditioner for an operator whose main
// diagonal is diag: it inverts diag, rejecting a zero, and stores the
// inverse protected under opt.Scheme. The solvers build their D^-1 with
// it from a protected operator's verified Diagonal.
// diag is not modified.
func NewJacobi(diag []float64, opt Options) (Preconditioner, error) {
	d, err := invertDiagonal(diag)
	if err != nil {
		return nil, err
	}
	return &jacobiPre{newInverse(len(d), d, opt)}, nil
}

// Apply computes z = D^-1 r through the protected inverse diagonal.
func (p *jacobiPre) Apply(z, r *core.Vector) error {
	if err := checkLengths(Jacobi, p.rows, z, r); err != nil {
		return err
	}
	return par.ForEach(p.inv.Blocks(), p.workers, 1, func(lo, hi int) error {
		var dv, rv [chunk * core.BlockLen]float64
		for c0 := lo; c0 < hi; c0 += chunk {
			c1 := min(c0+chunk, hi)
			if err := p.inv.Read(c0, c1, dv[:], p.mode); err != nil {
				return err
			}
			if err := r.Read(c0, c1, rv[:], core.ModeExclusive); err != nil {
				return err
			}
			for i := range dv[:(c1-c0)*core.BlockLen] {
				dv[i] *= rv[i]
			}
			for blk := c0; blk < c1; blk++ {
				z.WriteBlock(blk, (*[core.BlockLen]float64)(dv[(blk-c0)*core.BlockLen:]))
			}
		}
		return nil
	})
}

// Kind names the algorithm.
func (p *jacobiPre) Kind() Kind { return Jacobi }
