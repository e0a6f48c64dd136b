package solvers

import "abft/internal/core"

// Fused-kernel routing. The CG-family recurrences run their tails on
// core.FusedAxpyDot / core.FusedUpdateNorm — one verified decode per
// block per iteration instead of one per kernel — with options that
// mirror the reduction e.dot uses, so every iterate bit is the one the
// unfused sequence would produce:
//
//   - flat operators reduce in range order (core.Dot), which the fused
//     kernels reproduce with the same par.Ranges split;
//   - banded operators (the sharded composite, directly or through a
//     wrapper that forwards BandedOperator) reduce per-band partials
//     through a pairwise binary tree (shard.Operator.Dot), which the
//     fused kernels reproduce from the band structure converted to block
//     ranges.
//
// The options are chosen once per solve in initFuse.
func (e *engine) initFuse() {
	if e.band == nil {
		e.fuse = core.FusedOptions{Workers: e.w}
		return
	}
	e.bands = e.band.BandRanges()
	e.fuse = core.FusedOptions{BlockBands: blockBandsOf(e.bands), TreeReduce: true}
}

// blockBandsOf converts row-band ranges to codeword-block ranges. Band
// boundaries are core.BlockLen-aligned (internal/shard guarantees it), so
// the block bands tile the vector's blocks exactly.
func blockBandsOf(bands [][2]int) [][2]int {
	out := make([][2]int, len(bands))
	for i, bd := range bands {
		out[i] = [2]int{bd[0] / core.BlockLen, (bd[1] + core.BlockLen - 1) / core.BlockLen}
	}
	return out
}

// axpyDot performs the CG tail — x += alpha*p; r -= alpha*q; r.r — in
// one fused verified pass, bit-identical to Axpy + Axpy + e.dot(r, r).
func (e *engine) axpyDot(x *core.Vector, alpha float64, p, r, q *core.Vector) (float64, error) {
	return core.FusedAxpyDot(x, alpha, p, r, q, e.fuse)
}

// updateNorm forms dst = alpha*x + beta*y and returns dst.dst — the
// residual-formation idiom — in one fused pass, bit-identical to Waxpby
// + e.dot(dst, dst).
func (e *engine) updateNorm(dst *core.Vector, alpha float64, x *core.Vector, beta float64, y *core.Vector) (float64, error) {
	return core.FusedUpdateNorm(dst, alpha, x, beta, y, e.fuse)
}
