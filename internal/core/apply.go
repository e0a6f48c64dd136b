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
		// The sources are read in place: an update pending on one runs
		// as a plain pass first, since there is no check to save.
		if err := runUpdates(xs); err != nil {
			return err
		}
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
// A source with an update pending (UpdateRequest) is read by the
// update's own verified pass instead, which keeps the vector's new
// values in its buffer.
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
		var err error
		if u := x.upd; u != nil {
			u.Drop()
			err = u.RunKept(0, blocks, buf)
		} else {
			err = x.Read(0, blocks, buf, mode)
		}
		if err != nil {
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
// The unit of the clean path is one output block of BlockLen rows
// (DESIGN.md section 33), csrSweep.block: the block's row pointers come
// from their row-pointer groups, each checked by value once per sweep
// (rowPtrCursor.window, indexGroups.clean), the element codewords of the
// block's whole entry span are checked at once (ColElems.clean), the
// rows stream into k running sums
// and the output block is written once. Any fault, non-monotone pointer
// or wild column sends that block, and only it, to the per-row code
// (csrSweep.rows), which re-walks it from its first row with nothing
// yet counted, corrected or committed — so what a faulty block reports
// is the per-row code's by construction. Sweeps between full checks
// take the same path with no accumulators.
func (m *Matrix) applyRows(dsts []*Vector, xbufs [][]float64, lo, hi int, fullCheck, commit bool, ep *DotEpilogue) error {
	s := m.newSweep(xbufs, fullCheck, commit)
	defer s.flush()
	for r0 := lo; r0 < hi; r0 += BlockLen {
		n := min(hi-r0, BlockLen)
		if !s.block(r0, n) {
			if err := s.rows(r0, n); err != nil {
				return err
			}
		}
		s.write(dsts, ep, r0, n)
	}
	return nil
}

// csrSweep is one goroutine's state over its rows of a CSR product: the
// row reader — whose cursor's current group carries from one block to
// the next with its decoded values, whose element verifier keeps its
// SECDED128 pair memo, and which counts the checks — and the k running
// sums and output blocks.
type csrSweep struct {
	rowReader
	xbufs [][]float64
	sums  []float64
	outs  [][BlockLen]float64
}

// newSweep starts one goroutine's sweep against the decoded columns
// xbufs: a full check verifies what carries codewords, and commit lets
// it repair storage.
func (m *Matrix) newSweep(xbufs [][]float64, fullCheck, commit bool) csrSweep {
	return csrSweep{
		rowReader: m.newRowReader(fullCheck, commit),
		xbufs:     xbufs,
		sums:      make([]float64, len(xbufs)),
		outs:      make([][BlockLen]float64, len(xbufs)),
	}
}

// write stores the output blocks of the n rows at r0, zero past row n.
func (s *csrSweep) write(dsts []*Vector, ep *DotEpilogue, r0, n int) {
	for j, dst := range dsts {
		clear(s.outs[j][n:])
		ep.WriteBlock(j, dst, r0/BlockLen, &s.outs[j])
	}
}

// block is the clean path over the n <= BlockLen rows at r0: it fills
// the output blocks and reports true, or reports false having changed
// nothing but the output blocks — no count, no correction, no commit,
// no cursor or memo state — when anything on the way is not clean.
func (s *csrSweep) block(r0, n int) bool {
	m := s.m
	var p [2 * BlockLen]uint32
	groups, ok := s.cur.window(r0, n, &p)
	if !ok {
		return false
	}
	// Monotone and inside storage: then every pointer is <= nnz.
	bad := p[n] > uint32(m.nnz)
	for i := 0; i < n; i++ {
		bad = bad || p[i] > p[i+1]
	}
	if bad {
		return false
	}
	checks, lastPair := uint64(0), s.ver.lastPair
	if s.full {
		el, ok := &s.ver.el, true
		if el.Scheme == CRC32C {
			// The codeword is a row: one checksum per row.
			checks = uint64(n)
			for i := 0; i < n && ok; i++ {
				ok = el.runClean(int(p[i]), int(p[i+1]-p[i]))
			}
		} else {
			// The block's whole entry span at once, less under SECDED128
			// the pair the previous row verified (rowVerifier.row's memo,
			// kept across blocks).
			checks, lastPair, ok = el.clean(int(p[0]), int(p[n]), lastPair)
		}
		if !ok {
			return false
		}
	}
	if !s.stream(&p, n) {
		return false
	}
	s.cur.advance(r0, n, &p, groups)
	s.elemChecks += checks
	s.ver.lastPair = lastPair
	return true
}

// stream accumulates the n rows delimited by p[0..n] straight from
// storage into the output blocks, applying the column mask and the
// range check against the logical length of x, whatever the element
// scheme: the per-row stream of csrSweep.rows over a whole block. It
// reports false at a wild column, which the per-row code reports.
func (s *csrSweep) stream(p *[2 * BlockLen]uint32, n int) bool {
	m := s.m
	mask, vals, cols, width := s.ver.el.Mask(), m.vals, m.colIdx, m.cols
	if len(s.xbufs) == 1 {
		xbuf, out := s.xbufs[0][:width], &s.outs[0]
		for i := 0; i < n; i++ {
			cs := cols[p[i]:p[i+1]]
			vs := vals[p[i]:p[i+1]]
			vs = vs[:len(cs)]
			var sum float64
			for k, c := range cs {
				col := c & mask
				if uint(col) >= uint(len(xbuf)) {
					return false
				}
				sum += vs[k] * xbuf[col]
			}
			out[i] = sum
		}
		return true
	}
	sums := s.sums
	for i := 0; i < n; i++ {
		clear(sums)
		for k := p[i]; k < p[i+1]; k++ {
			col := cols[k] & mask
			if int(col) >= width {
				return false
			}
			v := vals[k]
			for j, xbuf := range s.xbufs {
				sums[j] += v * xbuf[col]
			}
		}
		for j, sum := range sums {
			s.outs[j][i] = sum
		}
	}
	return true
}

// rows is the cold path of a block: the per-row verify-then-stream
// protocol over the n rows at r0, from the state the clean path left.
// Each row comes from the row reader — verified, then storage itself or,
// when a correction could not be committed, a stage (rowReader.row) —
// and streams into every sum in entry order behind the column mask and
// the range check. Which fault is reported, the checks counted up to
// it, corrections, commits and bounds errors are therefore a per-row
// pass's, and RowScanner's.
func (s *csrSweep) rows(r0, n int) error {
	m, mask := s.m, s.ver.el.Mask()
	for r := r0; r < r0+n; r++ {
		cols, vals, base, err := s.row(r)
		if err != nil {
			return err
		}
		clear(s.sums)
		for i, c := range cols {
			col := c & mask
			if col >= uint32(m.cols) {
				return m.boundsErr(StructElements, base+i, col, uint32(m.cols))
			}
			for j, xbuf := range s.xbufs {
				s.sums[j] += vals[i] * xbuf[col]
			}
		}
		for j, sum := range s.sums {
			s.outs[j][r-r0] = sum
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
