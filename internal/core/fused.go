package core

import (
	"fmt"

	"abft/internal/par"
)

// Fused verified vector kernels. A CG-family iteration updates the
// iterate, updates the residual, and takes the residual norm — three
// kernels that each independently decode the same protected codeword
// blocks. The fused forms below make one blockwise pass: every input
// block is decoded exactly once, the updates are computed in registers,
// and the norm accumulates the freshly written (masked) values without
// re-reading storage. Arithmetic shape, range decomposition, element
// order and reduction order are kept bit-identical to the unfused
// sequence, so rewiring a solver onto them never changes an iterate.

// FusedOptions selects the decomposition and read discipline of a fused
// kernel call.
type FusedOptions struct {
	// Workers bounds the parallel split when no explicit decomposition
	// is given; it feeds par.Ranges exactly as the unfused kernels do.
	Workers int
	// Mode is the read discipline: exclusive commits corrections found
	// while decoding, shared keeps them decoder-local, unverified skips
	// codeword decode entirely (payload + mask only, counters untouched).
	// The zero value is ModeExclusive, matching every unfused kernel.
	Mode ReadMode
	// BlockBands, when set, fixes the block-index decomposition — one
	// partial sum per band — instead of the par.Ranges split. Banded
	// (sharded) operators pass their band structure here so the fused
	// reduction reproduces the per-shard partials of Operator.Dot.
	BlockBands [][2]int
	// TreeReduce selects the pairwise binary-tree reduction over the
	// partial sums (the sharded operators' deterministic allreduce
	// analogue) instead of the flat range-order sum the dense Dot uses.
	TreeReduce bool
}

// ranges returns the block decomposition for a vector of blocks blocks.
func (o FusedOptions) ranges(blocks int) [][2]int {
	if len(o.BlockBands) > 0 {
		return o.BlockBands
	}
	return par.Ranges(blocks, o.Workers, 1)
}

// Reduce combines per-range partial dot sums in the configured order,
// overwriting partials: the one combine every fused kernel, the dot
// epilogue and the sharded operator's Dot share.
func (o FusedOptions) Reduce(partials []float64) float64 {
	if o.TreeReduce {
		for step := 1; step < len(partials); step *= 2 {
			for i := 0; i+step < len(partials); i += 2 * step {
				partials[i] += partials[i+step]
			}
		}
		return partials[0]
	}
	var total float64
	for _, s := range partials {
		total += s
	}
	return total
}

// FusedAxpyDot performs the CG tail update in one verified pass:
//
//	x += alpha*p;  r -= alpha*q;  return r.r
//
// Each block of p, x, q and r is decoded once; the returned norm
// accumulates the masked updated residual — the exact values a
// subsequent verified read of r would observe — in strict element order
// with per-range partials, so the result is bit-identical to running
// Axpy, Axpy and Dot back to back over the same decomposition.
func FusedAxpyDot(x *Vector, alpha float64, p, r, q *Vector, opt FusedOptions) (float64, error) {
	n := x.Len()
	if p.Len() != n || r.Len() != n || q.Len() != n {
		return 0, fmt.Errorf("core: FusedAxpyDot length mismatch x=%d p=%d r=%d q=%d",
			n, p.Len(), r.Len(), q.Len())
	}
	ranges := opt.ranges(x.Blocks())
	partials := make([]float64, len(ranges))
	nalpha := -alpha
	err := par.Run(ranges, func(lo, hi int) error {
		var pv, xv, qv, rv, outX, outR [BlockLen]float64
		commit := opt.Mode.Commits()
		if opt.Mode.Verifies() {
			nb := uint64(hi - lo)
			p.counters.AddChecks(nb * p.checksPerBlock())
			x.counters.AddChecks(nb * x.checksPerBlock())
			q.counters.AddChecks(nb * q.checksPerBlock())
			r.counters.AddChecks(nb * r.checksPerBlock())
		}
		var s float64
		for blk := lo; blk < hi; blk++ {
			if err := readFused(p, blk, &pv, opt.Mode, commit); err != nil {
				return err
			}
			if err := readFused(x, blk, &xv, opt.Mode, commit); err != nil {
				return err
			}
			if err := readFused(q, blk, &qv, opt.Mode, commit); err != nil {
				return err
			}
			if err := readFused(r, blk, &rv, opt.Mode, commit); err != nil {
				return err
			}
			for i := range outX {
				outX[i] = alpha*pv[i] + 1*xv[i]
				outR[i] = nalpha*qv[i] + 1*rv[i]
			}
			x.WriteBlock(blk, &outX)
			r.WriteBlock(blk, &outR)
			// The norm reads the residual the storage now holds: masking
			// reproduces the encode/decode round trip bit for bit, in the
			// same strict element order as the standalone Dot.
			for _, v := range outR {
				m := r.Mask(v)
				s += m * m
			}
		}
		for i := range ranges {
			if ranges[i][0] == lo {
				partials[i] = s
				break
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return opt.Reduce(partials), nil
}

// FusedUpdateNorm computes dst = alpha*x + beta*y and returns dst.dst
// from the same pass — the residual-formation idiom (r = b - A*x
// followed by r.r) fused into one decode of each input block. dst may
// alias x or y, exactly as Waxpby allows.
func FusedUpdateNorm(dst *Vector, alpha float64, x *Vector, beta float64, y *Vector, opt FusedOptions) (float64, error) {
	n := dst.Len()
	if x.Len() != n || y.Len() != n {
		return 0, fmt.Errorf("core: FusedUpdateNorm length mismatch dst=%d x=%d y=%d",
			n, x.Len(), y.Len())
	}
	ranges := opt.ranges(dst.Blocks())
	partials := make([]float64, len(ranges))
	err := par.Run(ranges, func(lo, hi int) error {
		var xv, yv, out [BlockLen]float64
		commit := opt.Mode.Commits()
		if opt.Mode.Verifies() {
			nb := uint64(hi - lo)
			x.counters.AddChecks(nb * x.checksPerBlock())
			y.counters.AddChecks(nb * y.checksPerBlock())
		}
		var s float64
		for blk := lo; blk < hi; blk++ {
			if err := readFused(x, blk, &xv, opt.Mode, commit); err != nil {
				return err
			}
			if err := readFused(y, blk, &yv, opt.Mode, commit); err != nil {
				return err
			}
			for i := range out {
				out[i] = alpha*xv[i] + beta*yv[i]
			}
			dst.WriteBlock(blk, &out)
			for _, v := range out {
				m := dst.Mask(v)
				s += m * m
			}
		}
		for i := range ranges {
			if ranges[i][0] == lo {
				partials[i] = s
				break
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return opt.Reduce(partials), nil
}

// readFused reads one block under the fused kernels' mode ladder:
// unverified streams the masked payload without decode or counter
// traffic; the verifying modes decode and, for the exclusive owner,
// commit corrections back to storage.
func readFused(v *Vector, blk int, dst *[BlockLen]float64, mode ReadMode, commit bool) error {
	if !mode.Verifies() {
		v.ReadBlockNoCheck(blk, dst)
		return nil
	}
	return v.readBlock(blk, dst, commit)
}
