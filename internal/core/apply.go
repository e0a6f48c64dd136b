package core

import (
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
// the rows, satisfying Layout, under every scheme, None included
// (DESIGN.md section 43). Every source vector is decoded once into
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
	return DecodeSources(dsts, xs, !sw.Sources, func(xbufs [][]float64, ep *DotEpilogue) error {
		return m.Stream(dsts, xbufs, workers, sw, ep)
	})
}

// Stream is Product after its source prologue: dsts[j] = m xbufs[j]
// from sources already decoded into dense buffers of at least Cols()
// elements, under sw, every output block written through ep (nil
// without a dot request). The sharded composite calls it with buffers it
// filled itself. Each worker's rows run through the one sweep driver,
// SweepGroups, one output block at a time (csrSweep).
func (m *Matrix) Stream(dsts []*Vector, xbufs [][]float64, workers int, sw Sweep, ep *DotEpilogue) error {
	ranges := par.Ranges(m.rows, workers, BlockLen)
	commit := sw.Commit && len(ranges) <= 1
	return par.Run(ranges, func(lo, hi int) error {
		s := m.newSweep(dsts, xbufs, ep, hi, sw.Full, commit)
		return SweepGroups(s, lo/BlockLen, (hi+BlockLen-1)/BlockLen, len(xbufs), m.counters)
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
	s.size(xs)
	ep := StartDots(dsts, xs, s.cols)
	err := s.decode(xs, unverified)
	if err == nil {
		err = use(s.cols, ep)
	}
	err = ep.Finish(err)
	sourcePool.Put(s)
	return err
}

// size slices s.cols into one block-padded column per vector of xs.
func (s *sources) size(xs []*Vector) {
	n := xs[0].Blocks() * BlockLen
	if cap(s.flat) < len(xs)*n {
		s.flat = make([]float64, len(xs)*n)
	}
	s.cols = s.cols[:0]
	for j := range xs {
		s.cols = append(s.cols, s.flat[j*n:(j+1)*n])
	}
}

// decode fills s.cols with the dense decode of every vector of xs.
func (s *sources) decode(xs []*Vector, unverified bool) error {
	mode := ModeExclusive
	if unverified {
		mode = ModeUnverified
	}
	for j, x := range xs {
		var err error
		if u := x.upd; u != nil {
			u.Drop()
			err = u.RunKept(0, x.Blocks(), s.cols[j])
		} else {
			err = x.Read(0, x.Blocks(), s.cols[j], mode)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// csrSweep is one goroutine's Groups over its rows [.., hi) of a CSR
// product, a group being one output block of BlockLen rows (DESIGN.md
// sections 33 and 42). It holds the row reader — whose cursor's current
// group carries from one block to the next with its decoded values,
// whose element verifier keeps its SECDED128 pair memo, and which counts
// the cold path's checks — the k output blocks, and what the clean test
// of the current block found: its n rows' pointers p, and the pair memo
// it leaves. Done keeps that state only for a block the clean path
// streamed, so a block that is not clean goes to the per-row code (rows)
// with nothing yet counted, corrected, committed or memoised, and what
// it reports is the per-row code's by construction.
type csrSweep struct {
	rowReader
	dsts  []*Vector
	xbufs [][]float64
	ep    *DotEpilogue
	outs  [][BlockLen]float64
	hi, n int
	p     [2 * BlockLen]uint32
	pair  int
}

// newSweep starts one goroutine's sweep over rows up to hi against the
// decoded columns xbufs: a full check verifies what carries codewords,
// and commit lets it repair storage.
func (m *Matrix) newSweep(dsts []*Vector, xbufs [][]float64, ep *DotEpilogue, hi int, fullCheck, commit bool) *csrSweep {
	return &csrSweep{
		rowReader: m.newRowReader(fullCheck, commit),
		dsts:      dsts,
		xbufs:     xbufs,
		ep:        ep,
		outs:      make([][BlockLen]float64, len(xbufs)),
		hi:        hi,
	}
}

// Clean is the clean test of output block g, its n <= BlockLen rows
// from row g·BlockLen: the block's row pointers come from their
// row-pointer groups, each checked by value once per sweep
// (rowPtrCursor.window, indexGroups.clean), must be monotone and inside
// storage, and on a full sweep the element codewords of the block's
// whole entry span are checked at once (ColElems.clean; under CRC32C
// one run per row). Nothing is counted, corrected or committed; checks
// are the pointer groups and element codewords the block holds.
func (s *csrSweep) Clean(g int) (uint64, bool) {
	m, r0 := s.m, g*BlockLen
	n := min(s.hi-r0, BlockLen)
	s.n = n
	p := &s.p
	groups, ok := s.cur.window(r0, n, p)
	// Monotone and inside storage: then every pointer is <= nnz.
	ok = ok && p[n] <= uint32(m.nnz)
	for i := 0; i < n; i++ {
		ok = ok && p[i] <= p[i+1]
	}
	if !ok {
		return 0, false
	}
	var checks uint64
	s.pair = s.ver.lastPair
	if s.full {
		el := &s.ver.el
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
			checks, s.pair, ok = el.clean(int(p[0]), int(p[n]), s.pair)
		}
	}
	return checks + groups, ok
}

// Done keeps what the clean test of block g found when the clean path
// streamed it — the cursor now holds the group of the block's last
// pointer, decoded — and writes the block's outputs, zero past row n.
func (s *csrSweep) Done(g int, clean bool) {
	if clean {
		s.cur.advance(g*BlockLen, s.n, &s.p)
		s.ver.lastPair = s.pair
	}
	for j, dst := range s.dsts {
		clear(s.outs[j][s.n:])
		s.ep.WriteBlock(j, dst, g, &s.outs[j])
	}
}

// Cold is the cold path of block g: the per-row code (rows), from the
// state the last clean block left, with the checks it counted.
func (s *csrSweep) Cold(g int) (uint64, error) {
	r0 := g * BlockLen
	s.n = min(s.hi-r0, BlockLen)
	err := s.rows(r0, s.n)
	return s.take(), err
}

// Stream4 accumulates the block's n rows, delimited by p[0..n], straight
// from storage into the output blocks of columns j..j+3, each row's four
// sums in registers, applying the column mask and the range check
// against the logical length of x whatever the element scheme: the
// per-row stream of rows over a whole block. It reports false at a wild
// column, which the per-row code reports. The row slices are taken from
// the matrix per row, not hoisted: held across the entry loop they push
// its index out of a register.
func (s *csrSweep) Stream4(j int) bool {
	m, mask, p, n := s.m, s.ver.el.Mask(), &s.p, s.n
	x0 := s.xbufs[j][:m.cols]
	x1, x2, x3 := s.xbufs[j+1][:len(x0)], s.xbufs[j+2][:len(x0)], s.xbufs[j+3][:len(x0)]
	o := (*[4][BlockLen]float64)(s.outs[j : j+4])
	for i := 0; i < n; i++ {
		cs := m.colIdx[p[i]:p[i+1]]
		vs := m.vals[p[i]:p[i+1]]
		vs = vs[:len(cs)]
		var s0, s1, s2, s3 float64
		for k, c := range cs {
			col := c & mask
			if uint(col) >= uint(len(x0)) {
				return false
			}
			v := vs[k]
			s0 += v * x0[col]
			s1 += v * x1[col]
			s2 += v * x2[col]
			s3 += v * x3[col]
		}
		o[0][i], o[1][i], o[2][i], o[3][i] = s0, s1, s2, s3
	}
	return true
}

// Stream1 is Stream4 for the one column j.
func (s *csrSweep) Stream1(j int) bool {
	m, mask, p, n := s.m, s.ver.el.Mask(), &s.p, s.n
	x, out := s.xbufs[j][:m.cols], &s.outs[j]
	for i := 0; i < n; i++ {
		cs := m.colIdx[p[i]:p[i+1]]
		vs := m.vals[p[i]:p[i+1]]
		vs = vs[:len(cs)]
		var sum float64
		for k, c := range cs {
			col := c & mask
			if uint(col) >= uint(len(x)) {
				return false
			}
			sum += vs[k] * x[col]
		}
		out[i] = sum
	}
	return true
}

// rows is the cold path of a block: the per-row verify-then-stream
// protocol over the n rows at r0, from the state the last clean block
// left.
// Each row comes from the row reader — verified, then storage itself or,
// when a correction could not be committed, a stage (rowReader.row) —
// and streams into every output block in entry order behind the column
// mask and the range check. Which fault is reported, the checks counted
// up to it, corrections, commits and bounds errors are therefore a
// per-row pass's, and RowScanner's.
func (s *csrSweep) rows(r0, n int) error {
	m, mask := s.m, s.ver.el.Mask()
	for r := r0; r < r0+n; r++ {
		cols, vals, base, err := s.row(r)
		if err != nil {
			return err
		}
		i := r - r0
		for j := range s.outs {
			s.outs[j][i] = 0
		}
		for e, c := range cols {
			col := c & mask
			if col >= uint32(m.cols) {
				return m.boundsErr(StructElements, base+e, col, uint32(m.cols))
			}
			for j, xbuf := range s.xbufs {
				s.outs[j][i] += vals[e] * xbuf[col]
			}
		}
	}
	return nil
}
