package solvers

import "abft/internal/core"

// Fused-kernel routing. The engine rewires the CG-family recurrences
// onto core.FusedAxpyDot / core.FusedUpdateNorm — one verified decode
// per block per iteration instead of one per kernel — but only when the
// fused reduction provably mirrors the reduction e.dot would use:
//
//   - plain operators reduce flat in range order (core.Dot), which the
//     fused kernels reproduce with the same par.Ranges split;
//   - banded operators (the sharded composite, directly or through the
//     service's cache wrapper) reduce per-band partials through a
//     pairwise binary tree (shard.Operator.Dot), which the fused kernels
//     reproduce from the band structure converted to block ranges;
//   - an operator with a custom Dot but no band structure cannot be
//     mirrored, so the engine falls back to the unfused sequence rather
//     than risk changing a single iterate bit.
//
// The decision is made once per solve in initFuse.
func (e *engine) initFuse() {
	inner, _ := capabilities(e.a)
	if _, custom := inner.(DotOperator); !custom {
		e.fuse = core.FusedOptions{Workers: e.w}
		e.fuseOK = true
		return
	}
	if bo, ok := inner.(BandedOperator); ok {
		if bands := bo.BandRanges(); len(bands) > 0 {
			e.fuse = core.FusedOptions{
				BlockBands: blockBandsOf(bands),
				TreeReduce: true,
			}
			e.fuseOK = true
		}
	}
}

// blockBandsOf converts row-band ranges to codeword-block ranges. Band
// boundaries are ckptBlock-aligned (internal/shard guarantees it), so
// the block bands tile the vector's blocks exactly.
func blockBandsOf(bands [][2]int) [][2]int {
	out := make([][2]int, len(bands))
	for i, bd := range bands {
		out[i] = [2]int{bd[0] / ckptBlock, (bd[1] + ckptBlock - 1) / ckptBlock}
	}
	return out
}

// axpyDot performs the CG tail — x += alpha*p; r -= alpha*q; r.r — in
// one fused verified pass when the operator's reduction can be
// mirrored, and through the unfused kernel sequence otherwise. Either
// way the result is bit-identical to Axpy + Axpy + e.dot(r, r).
func (e *engine) axpyDot(x *core.Vector, alpha float64, p, r, q *core.Vector) (float64, error) {
	if e.fuseOK {
		return core.FusedAxpyDot(x, alpha, p, r, q, e.fuse)
	}
	if err := core.Axpy(x, alpha, p, e.w); err != nil {
		return 0, err
	}
	if err := core.Axpy(r, -alpha, q, e.w); err != nil {
		return 0, err
	}
	return e.dot(r, r)
}

// updateNorm forms dst = alpha*x + beta*y and returns dst.dst — the
// residual-formation idiom — fused into one pass when the operator's
// reduction can be mirrored. Bit-identical to Waxpby + e.dot(dst, dst).
func (e *engine) updateNorm(dst *core.Vector, alpha float64, x *core.Vector, beta float64, y *core.Vector) (float64, error) {
	if e.fuseOK {
		return core.FusedUpdateNorm(dst, alpha, x, beta, y, e.fuse)
	}
	if err := core.Waxpby(dst, alpha, x, beta, y, e.w); err != nil {
		return 0, err
	}
	return e.dot(dst, dst)
}
