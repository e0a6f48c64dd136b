package precond

import (
	"fmt"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/par"
)

// jacobiPre is the Jacobi (inverse-diagonal) preconditioner: its setup
// product 1/diag(A) lives in a codeword-protected vector, so every
// Apply verifies the diagonal it scales by and a bit flip in resident
// preconditioner memory is corrected or detected, never silently
// folded into the Krylov basis.
type jacobiPre struct {
	rows    int
	inv     *core.Vector
	workers int
	mode    core.ReadMode
}

func newJacobi(src *csr.Matrix, opt Options) (*jacobiPre, error) {
	d, err := invertDiagonal(src)
	if err != nil {
		return nil, err
	}
	inv := core.VectorFromSlice(d, opt.Scheme)
	inv.SetCRCBackend(opt.Backend)
	return &jacobiPre{rows: src.Rows(), inv: inv, workers: opt.Workers}, nil
}

// Apply computes z = D^-1 r through the protected inverse diagonal.
func (p *jacobiPre) Apply(z, r *core.Vector) error {
	if z.Len() != p.rows || r.Len() != p.rows {
		return fmt.Errorf("precond: jacobi Apply length mismatch: z %d, r %d, rows %d",
			z.Len(), r.Len(), p.rows)
	}
	return par.ForEach(p.inv.Blocks(), p.workers, 1, func(lo, hi int) error {
		var dv, rv, out [core.BlockLen]float64
		if p.mode.Verifies() {
			vecChecks(p.inv, hi-lo)
		}
		vecChecks(r, hi-lo)
		for blk := lo; blk < hi; blk++ {
			if err := readBlk(p.inv, blk, &dv, p.mode); err != nil {
				return err
			}
			if err := r.ReadBlock(blk, &rv); err != nil {
				return err
			}
			for i := range out {
				out[i] = dv[i] * rv[i]
			}
			z.WriteBlock(blk, &out)
		}
		return nil
	})
}

// Rows returns the operator dimension.
func (p *jacobiPre) Rows() int { return p.rows }

// Kind names the algorithm.
func (p *jacobiPre) Kind() Kind { return Jacobi }

// Scrub patrols the protected inverse diagonal.
func (p *jacobiPre) Scrub() (int, error) { return p.inv.CheckAll() }

// SetCounters attaches a statistics accumulator to the state vector.
func (p *jacobiPre) SetCounters(c *core.Counters) {
	p.inv.SetCounters(c)
}

// SetReadMode selects the read discipline for the protected state.
func (p *jacobiPre) SetReadMode(mode core.ReadMode) { p.mode = mode }

// RawState exposes the protected inverse diagonal for fault injection.
func (p *jacobiPre) RawState() []*core.Vector { return []*core.Vector{p.inv} }
