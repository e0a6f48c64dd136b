package solvers

import "abft/internal/core"

// Vector-pass routing. Every solver's vector updates run as core.Pass —
// one verified decode per block per pass instead of one per kernel —
// with options that mirror the reduction e.dot uses, so a dot a pass
// returns is bit for bit the one e.dot would compute after it:
//
//   - flat operators reduce in range order (core.Dot), which a pass
//     reproduces with the same par.Ranges split;
//   - banded operators (the sharded composite, directly or through a
//     wrapper that forwards BandedOperator) reduce per-band partials
//     through a pairwise binary tree (shard.Operator.Dot), which a pass
//     reproduces from the band structure converted to block ranges.
//
// The options are chosen once per solve in initFuse.
func (e *engine) initFuse() {
	if e.band == nil {
		e.fuse = core.FusedOptions{Workers: e.w}
		return
	}
	e.fuse = core.FusedOptions{BlockBands: blockBandsOf(e.band.BandRanges())}
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

// pass runs one core.Pass under the solve's decomposition.
func (e *engine) pass(dot core.DotOf, outs ...core.Lin) (float64, error) {
	return core.Pass(e.fuse, dot, outs...)
}

// updateNorm forms dst = alpha*x + beta*y and returns dst.dst — the
// residual-formation idiom — in one fused pass, bit-identical to Waxpby
// + e.dot(dst, dst).
func (e *engine) updateNorm(dst *core.Vector, alpha float64, x *core.Vector, beta float64, y *core.Vector) (float64, error) {
	return core.FusedUpdateNorm(dst, alpha, x, beta, y, e.fuse)
}
