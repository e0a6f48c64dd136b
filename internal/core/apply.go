package core

import (
	"math"
	"sync"

	"abft/internal/par"
)

// BatchApplier is the ProtectedMatrix kernel of a batched sparse
// matrix–multivector product that makes one verify-then-stream pass over
// the matrix and feeds k accumulators, so every matrix-side integrity
// check is paid once per pass instead of once per right-hand side.
type BatchApplier interface {
	ApplyBatch(dst, x *MultiVector, workers int) error
}

// SpMV computes dst = m * x with integrity checking as configured on the
// matrix and vectors: Matrix.Apply under its kernel name.
func SpMV(dst *Vector, m *Matrix, x *Vector, workers int) error {
	return m.Apply(dst, x, workers)
}

// Product computes dsts[j] = m xs[j] for every j in a single pass over
// the rows, satisfying Layout. Every source vector is decoded once into
// a dense buffer (DecodeSources), each row's codewords are verified once
// per full sweep whatever the width and range-checked on the sweeps
// between, and the row streams into k running sums; column j
// accumulates in the order a width-1 call uses, so results are
// bit-identical per column for any width and worker count. Results are
// committed one output codeword block at a time, so no read-modify-write
// is ever needed. Dot requests pending on dsts (DotRequest) are answered
// from the sweep.
//
// In parallel runs, workers never write to matrix codewords they do not
// own: corrections discovered there are used for the computation but
// left in storage for the next serial check or scrub to repair.
func (m *Matrix) Product(dsts, xs []*Vector, workers int, sw Sweep) error {
	ranges := par.Ranges(m.rows, workers, 8)
	if m.scheme == None && m.rowScheme == None && xs[0].scheme == None {
		ep := startDots(dsts, xs)
		return ep.finish(par.Run(ranges, func(lo, hi int) error {
			m.rawRows(dsts, xs, lo, hi, ep)
			return nil
		}))
	}
	commit := sw.Commit && len(ranges) <= 1
	return DecodeSources(dsts, xs, !sw.Sources, func(xbufs [][]float64, ep *DotEpilogue) error {
		return par.Run(ranges, func(lo, hi int) error {
			return m.applyRows(dsts, xbufs, lo, hi, sw.Full, commit, ep)
		})
	})
}

// sources is the per-sweep dense decode of k source vectors: one flat
// buffer sliced per column.
type sources struct {
	flat []float64
	cols [][]float64
}

// sourcePool recycles decode buffers across sweeps. A buffer belongs to
// one DecodeSources call at a time and is never stored on a matrix or a
// vector, so operators stay exactly as large as their storage and
// concurrent solves over one shared operator never share a buffer.
var sourcePool = sync.Pool{New: func() any { return new(sources) }}

// DecodeSources is the source-vector prologue every format's apply
// skeleton shares: it decodes each of xs (which must agree in length)
// once into a dense, block-padded buffer and calls use with the k
// buffers, which are valid only until use returns, and with the sweep's
// dot epilogue: nil unless a dot request is pending on one of dsts for a
// product from its x (DotRequest), in which case use writes every output
// block through it and the requests are answered from the same buffers
// once use has succeeded. The decode runs on
// the calling goroutine, before use fans out to any worker, and the
// source vectors are the caller's own operands (the operator's read
// mode describes the operator, not them), so every codeword is verified
// exactly once per sweep and single-bit corrections are committed to
// xs in exclusive and shared mode alike. With unverified set the masked
// payload is copied with no decode, no commit and no check accounting.
//
// The buffers are unprotected for the length of one sweep: a fault
// striking xs after the decode is caught by the next verified reader of
// that vector, not by this sweep.
func DecodeSources(dsts, xs []*Vector, unverified bool, use func(xbufs [][]float64, ep *DotEpilogue) error) error {
	s := sourcePool.Get().(*sources)
	ep := startDots(dsts, xs)
	err := s.decode(xs, unverified)
	if err == nil {
		if ep != nil {
			ep.xbufs = s.cols
		}
		err = use(s.cols, ep)
	}
	err = ep.finish(err)
	sourcePool.Put(s)
	return err
}

// decode fills s.cols with the dense decode of every vector of xs.
func (s *sources) decode(xs []*Vector, unverified bool) error {
	blocks := xs[0].Blocks()
	n := blocks * BlockLen
	if cap(s.flat) < len(xs)*n {
		s.flat = make([]float64, len(xs)*n)
	}
	mode := ModeExclusive
	if unverified {
		mode = ModeUnverified
	}
	s.cols = s.cols[:0]
	for j, x := range xs {
		buf := s.flat[j*n : (j+1)*n]
		if err := x.Read(0, blocks, buf, mode); err != nil {
			return err
		}
		s.cols = append(s.cols, buf)
	}
	return nil
}

// applyRows multiplies rows [lo,hi) against every decoded column; lo
// must be a multiple of the output block size (guaranteed by par.Ranges
// alignment 8).
//
// Each row follows the verify-then-stream protocol: on checking sweeps
// the row's element codewords are batch-verified first (rowVerifier.row),
// then the payload streams from storage with only the column mask and
// range check applied (streamRow) — no decode interleaved with the
// multiply. Only when a correction could not be committed (a no-commit
// worker or a shared operator hit a live fault) is the row staged
// through ColElems.DecodeLocal and the stage streamed instead
// (stageRow), so the fallback's cost is paid per faulty row, not per
// sweep. The verify work per row is the same whatever the width.
func (m *Matrix) applyRows(dsts []*Vector, xbufs [][]float64, lo, hi int, fullCheck, commit bool, ep *DotEpilogue) error {
	cur := rowPtrCursor{m: m, check: fullCheck && m.rowScheme != None, commit: commit, group: -1}
	ver := m.newRowVerifier(commit)
	colMask := ver.el.Mask()

	var elemChecks uint64
	defer func() {
		m.counters.AddChecks(elemChecks + cur.checks)
	}()

	sums := make([]float64, len(xbufs))
	outs := make([][BlockLen]float64, len(xbufs))
	// Row r's end pointer is row r+1's start pointer: carry it across
	// iterations so each row costs one cursor lookup, not two.
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
		if fullCheck && m.scheme != None {
			var checks uint64
			dirty, checks, err = ver.row(r, rlo, rhi)
			elemChecks += checks
			if err != nil {
				return err
			}
		}
		if dirty {
			err = m.stageRow(&ver.el, sums, xbufs, r, rlo, rhi)
		} else {
			err = m.streamRow(sums, xbufs, rlo, rhi, colMask)
		}
		if err != nil {
			return err
		}
		rlo32 = rhi32
		for j, s := range sums {
			outs[j][r%BlockLen] = s
		}
		if r%BlockLen == BlockLen-1 {
			for j, dst := range dsts {
				ep.WriteBlock(j, dst, r/BlockLen, &outs[j])
			}
		}
	}
	if hi%BlockLen != 0 {
		for j, dst := range dsts {
			for i := hi % BlockLen; i < BlockLen; i++ {
				outs[j][i] = 0
			}
			ep.WriteBlock(j, dst, hi/BlockLen, &outs[j])
		}
	}
	return nil
}

// streamRow accumulates entries [lo,hi) of a verified-clean row (or of
// any row on a range-check-only sweep) straight from storage into sums,
// one running sum per decoded column: the fast second half of
// verify-then-stream, with only the column mask and range check applied,
// once per entry whatever the width. Unprotected elements carry raw
// indices exactly as in an unprotected solver, so no range check applies
// to them (protecting only the row pointers costs only the per-row
// cursor work, matching the paper's near-free Figure 5 results).
func (m *Matrix) streamRow(sums []float64, xbufs [][]float64, lo, hi int, mask uint32) error {
	if len(sums) == 1 {
		xbuf := xbufs[0]
		var sum float64
		for k := lo; k < hi; k++ {
			col := m.colIdx[k] & mask
			if m.scheme != None && col >= uint32(m.cols) {
				return m.boundsErr(StructElements, k, col, uint32(m.cols))
			}
			sum += m.vals[k] * xbuf[col]
		}
		sums[0] = sum
		return nil
	}
	clear(sums)
	for k := lo; k < hi; k++ {
		col := m.colIdx[k] & mask
		if m.scheme != None && col >= uint32(m.cols) {
			return m.boundsErr(StructElements, k, col, uint32(m.cols))
		}
		v := m.vals[k]
		for j, xbuf := range xbufs {
			sums[j] += v * xbuf[col]
		}
	}
	return nil
}

// stageRow is the corrective fallback for a dirty row r, entries
// [lo,hi): the row is decoded into a local stage with its correction
// applied there — nothing written to shared storage, nothing counted,
// since the verify that flagged the row already accounted the checks and
// the correction — and the stage streams into every sum in entry order.
func (m *Matrix) stageRow(el *ColElems, sums []float64, xbufs [][]float64, r, lo, hi int) error {
	cols, vals, err := el.DecodeLocal(r, lo, hi-lo)
	if err != nil {
		return err
	}
	clear(sums)
	for i, col := range cols {
		if col >= uint32(m.cols) {
			return m.boundsErr(StructElements, lo+i, col, uint32(m.cols))
		}
		for j, xbuf := range xbufs {
			sums[j] += vals[i] * xbuf[col]
		}
	}
	return nil
}

// rawRows is the unprotected baseline (matrix and source vectors all
// scheme none): rows [lo,hi) multiply straight from raw storage, the
// source words indexed in place with no decode and no copy, one column
// at a time through the plain CSR loop.
func (m *Matrix) rawRows(dsts, xs []*Vector, lo, hi int, ep *DotEpilogue) {
	for j, x := range xs {
		var out [BlockLen]float64
		for r := lo; r < hi; r++ {
			rlo, rhi := m.rowptr[r], m.rowptr[r+1]
			var sum float64
			for k := rlo; k < rhi; k++ {
				sum += m.vals[k] * math.Float64frombits(x.words[m.colIdx[k]])
			}
			out[r%BlockLen] = sum
			if r%BlockLen == BlockLen-1 {
				ep.WriteBlock(j, dsts[j], r/BlockLen, &out)
			}
		}
		if hi%BlockLen != 0 {
			for i := hi % BlockLen; i < BlockLen; i++ {
				out[i] = 0
			}
			ep.WriteBlock(j, dsts[j], hi/BlockLen, &out)
		}
	}
}
