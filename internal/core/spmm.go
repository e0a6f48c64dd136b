package core

import (
	"fmt"

	"abft/internal/par"
)

// BatchApplier is an optional capability of ProtectedMatrix
// implementations: a batched sparse matrix–multivector product that
// makes one verify-then-stream pass over the matrix and feeds k
// accumulators, so every matrix-side integrity check is paid once per
// pass instead of once per right-hand side. All formats in this
// repository (CSR here, internal/coo, internal/sell) and the sharded
// composite implement it.
type BatchApplier interface {
	ApplyBatch(dst, x *MultiVector, workers int) error
}

// ApplyBatch computes dst = m * x for every column of x in one verified
// pass over the matrix. Each source column is decoded exactly once into
// a dense buffer up front (the batch analogue of the stencil cache:
// x-side codewords cost one check per block per pass, independent of
// how many matrix entries reference them), then rows stream under the
// same verify-then-stream protocol as SpMV with k running sums.
// Per-column results are bit-identical to k independent Apply calls.
func (m *Matrix) ApplyBatch(dst, x *MultiVector, workers int) error {
	if dst.Len() != m.Rows() || x.Len() != m.Cols() {
		return fmt.Errorf("core: SpMM dimension mismatch: dst %d, m %dx%d, x %d",
			dst.Len(), m.Rows(), m.Cols(), x.Len())
	}
	if dst.K() != x.K() {
		return fmt.Errorf("core: SpMM width mismatch: dst %d, x %d", dst.K(), x.K())
	}
	xbufs, err := decodeColumns(x, m.mode.Commits())
	if err != nil {
		return err
	}
	fullCheck := m.StartSweep()
	ranges := par.Ranges(m.Rows(), workers, 8)
	if len(ranges) <= 1 {
		return m.spmmRange(dst, xbufs, 0, m.Rows(), fullCheck, m.mode.Commits())
	}
	return par.Run(ranges, func(lo, hi int) error {
		return m.spmmRange(dst, xbufs, lo, hi, fullCheck, false)
	})
}

// decodeColumns verifies every column of x once and returns dense
// padded decodes. The decode runs serially before any worker fan-out,
// so corrections may be committed whenever the caller owns the operand
// (commit follows the operator's shared discipline).
func decodeColumns(x *MultiVector, commit bool) ([][]float64, error) {
	xbufs := make([][]float64, x.K())
	blocks := x.Blocks()
	for j := range xbufs {
		xbufs[j] = make([]float64, blocks*vecBlock)
		col := x.Col(j)
		var err error
		if commit {
			err = col.ReadBlocksInto(0, blocks, xbufs[j])
		} else {
			err = col.ReadBlocksSharedInto(0, blocks, xbufs[j])
		}
		if err != nil {
			return nil, err
		}
	}
	return xbufs, nil
}

// spmmRange multiplies rows [lo,hi) against every decoded column; lo
// must be a multiple of the output block size. It is spmvRange with the
// inner multiply fanned out over k sums — the verify work per row
// (row-pointer cursor, element batch verify, the staged fallback of a
// dirty row) is identical and happens once regardless of k.
func (m *Matrix) spmmRange(dst *MultiVector, xbufs [][]float64, lo, hi int, fullCheck, commit bool) error {
	if m.elemScheme == None && m.rowScheme == None {
		return m.spmmRawRange(dst, xbufs, lo, hi)
	}
	k := len(xbufs)
	cur := rowPtrCursor{m: m, check: fullCheck, commit: commit, group: -1}
	ver := m.newRowVerifier(commit)
	colMask := ver.el.Mask()

	var elemChecks uint64
	defer func() {
		m.counters.AddChecks(elemChecks + cur.checks)
	}()

	sums := make([]float64, k)
	outs := make([][vecBlock]float64, k)
	rlo32, err := cur.value(lo)
	if err != nil {
		return err
	}
	for r := lo; r < hi; r++ {
		rhi32, err := cur.value(r + 1)
		if err != nil {
			return err
		}
		if rlo32 > rhi32 {
			return m.boundsErr(StructRowPtr, r, rlo32, rhi32)
		}
		rlo, rhi := int(rlo32), int(rhi32)
		dirty := false
		if fullCheck && m.elemScheme != None {
			var checks uint64
			dirty, checks, err = ver.row(r, rlo, rhi)
			elemChecks += checks
			if err != nil {
				return err
			}
		}
		for j := range sums {
			sums[j] = 0
		}
		switch {
		case !dirty:
			// Verified clean (or a range-check-only sweep): stream the
			// row unguarded from storage into all k sums.
			for kk := rlo; kk < rhi; kk++ {
				col := m.colIdx[kk] & colMask
				if m.elemScheme != None && col >= uint32(m.cols) {
					return m.boundsErr(StructElements, kk, col, uint32(m.cols))
				}
				v := m.vals[kk]
				for j := 0; j < k; j++ {
					sums[j] += v * xbufs[j][col]
				}
			}
		default:
			// Dirty row: stage it, stream the stage.
			cols, vals, err := ver.el.DecodeLocal(r, rlo, rhi-rlo, 1)
			if err != nil {
				return err
			}
			for i, col := range cols {
				if col >= uint32(m.cols) {
					return m.boundsErr(StructElements, rlo+i, col, uint32(m.cols))
				}
				for j := 0; j < k; j++ {
					sums[j] += vals[i] * xbufs[j][col]
				}
			}
		}
		rlo32 = rhi32
		for j := 0; j < k; j++ {
			outs[j][r%vecBlock] = sums[j]
		}
		if r%vecBlock == vecBlock-1 {
			for j := 0; j < k; j++ {
				dst.Col(j).WriteBlock(r/vecBlock, &outs[j])
			}
		}
	}
	if hi%vecBlock != 0 {
		for j := 0; j < k; j++ {
			for i := hi % vecBlock; i < vecBlock; i++ {
				outs[j][i] = 0
			}
			dst.Col(j).WriteBlock(hi/vecBlock, &outs[j])
		}
	}
	return nil
}

// spmmRawRange is the unprotected baseline path of the batched product.
func (m *Matrix) spmmRawRange(dst *MultiVector, xbufs [][]float64, lo, hi int) error {
	k := len(xbufs)
	sums := make([]float64, k)
	outs := make([][vecBlock]float64, k)
	for r := lo; r < hi; r++ {
		rlo, rhi := m.rowptr[r], m.rowptr[r+1]
		for j := range sums {
			sums[j] = 0
		}
		for kk := rlo; kk < rhi; kk++ {
			v := m.vals[kk]
			col := m.colIdx[kk]
			for j := 0; j < k; j++ {
				sums[j] += v * xbufs[j][col]
			}
		}
		for j := 0; j < k; j++ {
			outs[j][r%vecBlock] = sums[j]
		}
		if r%vecBlock == vecBlock-1 {
			for j := 0; j < k; j++ {
				dst.Col(j).WriteBlock(r/vecBlock, &outs[j])
			}
		}
	}
	if hi%vecBlock != 0 {
		for j := 0; j < k; j++ {
			for i := hi % vecBlock; i < vecBlock; i++ {
				outs[j][i] = 0
			}
			dst.Col(j).WriteBlock(hi/vecBlock, &outs[j])
		}
	}
	return nil
}
