// Package sell implements ABFT protection for sparse matrices in the
// SELL-C-sigma (sliced ELLPACK) format of Kreutzer et al., the
// SIMD-friendly layout used by GPU and wide-vector SpMV kernels: rows are
// sorted by descending length inside windows of sigma rows, grouped into
// slices of C consecutive stored rows, and each slice is padded to its
// widest row and laid out column-major, so all C lanes of a slice advance
// in lockstep.
//
// The protection is the column-element codec of internal/core
// (core.ColElems, paper Fig 1) applied to this format's own arrays: an
// element is the 96-bit (value, column-index) pair and the redundancy
// lives in the unused top bits of the 32-bit column index, costing zero
// extra storage:
//
//	SED        parity over value^column in column bit 31; cols <= 2^31-1
//	SECDED64   8 check bits in the column top byte; cols <= 2^24-1
//	SECDED128  9 check bits across two consecutive stored elements
//	           (slices hold a multiple of C=4 entries, so pairs always
//	           align); cols <= 2^24-1
//	CRC32C     one CRC32C per slice — stored column-major, so one
//	           contiguous run of the codec — split into chunks of at most
//	           13 columns (52 entries, 5,024 bits with the checksum: the
//	           largest inside CRC32C's HD-6 range), byte-wise in the top
//	           bytes of each chunk's last four entries; cols <= 2^24-1
//
// A slice is one group of core's verify-then-stream sweep
// (core.SweepGroups, DESIGN.md section 42), which runs each σ-window's
// slices: a clean slice streams from storage; any other is checked by
// the codec's committing check (checkSlice) and streams from storage
// repaired in place or, when a shared matrix could not commit a repair,
// from a copy repaired by the same check (core.ColElems.DecodeLocal).
//
// The structural metadata — slice offsets, the row permutation and the
// per-row lengths — is unprotected, and a flip in it corrupts a product
// silently: a reproduced flip in the permutation or the slice offsets
// gave wrong rows with a nil error and no counter moved (DESIGN.md
// section 5, ROADMAP item 15). SpMV range-checks every decoded column
// index against the matrix dimensions, so such corruption cannot fault
// the process, but it can change the answer.
package sell

import (
	"fmt"
	"sort"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/par"
)

// C is the slice height (stored rows per slice). It divides the vector
// block of internal/core (core.BlockLen), so sigma windows — whole
// numbers of vector blocks — hold whole slices.
const C = 4

// chunkCols is the widest CRC32C codeword in slice columns: the most
// 96-bit elements whose codeword, with its 32-bit checksum, stays inside
// CRC32C's HD-6 range, rounded down to whole columns of C entries — 13
// columns, 52 entries, 5,024 bits. Every non-empty chunk holds at least
// one column, so at least the four entries its checksum slots need.
const chunkCols = (ecc.HD6MaxBits - 32) / 96 / C

// DefaultSigma is the sorting-window size used when Options.Sigma is zero.
const DefaultSigma = 32

// Options configures SELL-C-sigma protection.
type Options struct {
	// Scheme protects the (value, column-index) element stream.
	Scheme core.Scheme
	// Backend selects the CRC32C implementation.
	Backend ecc.Backend
	// Sigma is the row-sorting window in rows; it is rounded up to a
	// multiple of the vector block (core.BlockLen, itself a multiple of
	// C) and defaults to DefaultSigma. Larger windows reduce padding at
	// the cost of a wider output scatter.
	Sigma int
}

// Matrix is a sparse matrix in SELL-C-sigma format with embedded ECC; its NNZ
// counts logical entries, excluding slice padding.
type Matrix struct {
	core.Shell
	backend ecc.Backend
	sigma   int

	// Unprotected structural metadata (see the package comment).
	slicePtr []uint32 // entry offset of each slice, len slices+1
	perm     []uint32 // stored row -> original row; padRow for dummy lanes
	rowLen   []uint32 // real entries of each stored row

	colIdx []uint32 // column indices + embedded ECC, column-major per slice
	vals   []float64
}

// padRow marks a dummy lane added to fill the last slice.
const padRow = ^uint32(0)

// NewMatrix builds a protected SELL-C-sigma copy of src.
func NewMatrix(src *csr.Matrix, opt Options) (*Matrix, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	s := opt.Scheme
	if src.Cols32() > s.MaxCols() {
		return nil, fmt.Errorf("sell: %d columns exceed %s limit %d", src.Cols32(), s, s.MaxCols())
	}
	sigma := opt.Sigma
	if sigma <= 0 {
		sigma = DefaultSigma
	}
	sigma = (sigma + core.BlockLen - 1) / core.BlockLen * core.BlockLen

	rows := src.Rows()
	padded := (rows + C - 1) / C * C
	m := &Matrix{
		backend: opt.Backend,
		sigma:   sigma,
		perm:    make([]uint32, padded),
		rowLen:  make([]uint32, padded),
	}
	m.Init(m, rows, src.Cols32(), src.NNZ(), s, s != core.None)
	// Sort rows by descending length inside each sigma window; the stable
	// tie-break keeps the permutation deterministic.
	for sr := range m.perm {
		if sr < rows {
			m.perm[sr] = uint32(sr)
		} else {
			m.perm[sr] = padRow
		}
	}
	rlen := func(r uint32) int { return int(src.RowPtr[r+1] - src.RowPtr[r]) }
	for base := 0; base < rows; base += sigma {
		hi := base + sigma
		if hi > rows {
			hi = rows
		}
		win := m.perm[base:hi]
		sort.SliceStable(win, func(i, j int) bool { return rlen(win[i]) > rlen(win[j]) })
	}
	for sr, r := range m.perm {
		if r != padRow {
			m.rowLen[sr] = uint32(rlen(r))
		}
	}

	// Size the slices: each is padded to its widest row.
	slices := padded / C
	m.slicePtr = make([]uint32, slices+1)
	for sl := 0; sl < slices; sl++ {
		width := 0
		for l := 0; l < C; l++ {
			if n := int(m.rowLen[sl*C+l]); n > width {
				width = n
			}
		}
		m.slicePtr[sl+1] = m.slicePtr[sl] + uint32(width*C)
	}
	total := int(m.slicePtr[slices])
	m.colIdx = make([]uint32, total)
	m.vals = make([]float64, total)

	// Fill column-major per slice; padding entries are explicit zeros on
	// a clamped diagonal column so SpMV adds 0*x[c] and nothing changes.
	for sl := 0; sl < slices; sl++ {
		width := m.sliceWidth(sl)
		for l := 0; l < C; l++ {
			sr := sl*C + l
			r := m.perm[sr]
			pad := uint32(0)
			if r != padRow {
				pad = r
				if int(pad) >= m.Cols() {
					pad = uint32(m.Cols() - 1)
				}
			}
			for j := 0; j < width; j++ {
				k := m.entryIndex(sl, l, j)
				if r != padRow && j < int(m.rowLen[sr]) {
					e := src.RowPtr[r] + uint32(j)
					m.colIdx[k] = src.Cols[e]
					m.vals[k] = src.Vals[e]
				} else {
					m.colIdx[k] = pad
					m.vals[k] = 0
				}
			}
		}
	}
	m.encodeAll()
	return m, nil
}

// entryIndex returns the storage index of entry j of lane l in slice sl.
func (m *Matrix) entryIndex(sl, l, j int) int {
	return int(m.slicePtr[sl]) + j*C + l
}

// sliceWidth returns the padded entry count per lane of slice sl.
func (m *Matrix) sliceWidth(sl int) int {
	return int(m.slicePtr[sl+1]-m.slicePtr[sl]) / C
}

// Sigma returns the row-sorting window.
func (m *Matrix) Sigma() int { return m.sigma }

// Slices returns the number of C-row slices.
func (m *Matrix) Slices() int { return len(m.slicePtr) - 1 }

// StoredEntries returns the stored entry count including slice padding.
func (m *Matrix) StoredEntries() int { return len(m.vals) }

// SliceRange returns the half-open storage range [lo, hi) of slice sl.
// Lane l of the slice occupies positions lo+l, lo+l+C, lo+l+2C, ...
func (m *Matrix) SliceRange(sl int) (lo, hi int) {
	return int(m.slicePtr[sl]), int(m.slicePtr[sl+1])
}

// RawVals exposes the stored values for fault injection.
func (m *Matrix) RawVals() []float64 { return m.vals }

// RawCols exposes the stored column indices (data + embedded ECC) for
// fault injection.
func (m *Matrix) RawCols() []uint32 { return m.colIdx }

// elems returns the column-element codec over this matrix's own element
// arrays (a view built per call, never a copy).
func (m *Matrix) elems() core.ColElems {
	return core.ColElems{Scheme: m.Scheme(), Backend: m.backend, Vals: m.vals, Cols: m.colIdx}
}

// chunks returns the number of CRC32C codewords of slice sl: one per
// chunkCols columns or part of it, none for a slice of width 0.
func (m *Matrix) chunks(sl int) int {
	return (m.sliceWidth(sl) + chunkCols - 1) / chunkCols
}

// chunk addresses chunk i of slice sl as a codec run: its first storage
// position, which is also the id its FaultError reports, and its entry
// count.
func (m *Matrix) chunk(sl, i int) (base, n int) {
	lo, hi := m.SliceRange(sl)
	base = lo + i*chunkCols*C
	return base, min(chunkCols*C, hi-base)
}

// encodeAll embeds the redundancy: per-entry codewords in storage order,
// or one CRC32C per slice chunk.
func (m *Matrix) encodeAll() {
	el := m.elems()
	if m.Scheme() != core.CRC32C {
		el.Encode(0, len(m.vals))
		return
	}
	for sl := 0; sl < m.Slices(); sl++ {
		for i := 0; i < m.chunks(sl); i++ {
			el.EncodeRun(m.chunk(sl, i))
		}
	}
}

// checkSlice is slice sl's committing check: every codeword in storage
// order, repairing correctable errors when commit is true and counting
// corrections and detections into c. With commit false and c nil it is
// the slice's clean test, which writes and counts nothing.
func (m *Matrix) checkSlice(el *core.ColElems, sl int, commit bool, c *core.Counters) core.Verdict {
	lo, hi := m.SliceRange(sl)
	if m.Scheme() != core.CRC32C {
		return el.Check(lo, hi, commit, c)
	}
	var v core.Verdict
	for i := 0; i < m.chunks(sl); i++ {
		base, n := m.chunk(sl, i)
		v.Note(el.CheckRun(base, base, n, commit, c))
	}
	return v
}

// VerifyAll verifies and repairs every codeword, satisfying
// core.Layout: the body of Shell.CheckAll.
func (m *Matrix) VerifyAll(acc *core.Counters) (checks uint64, err error) {
	el := m.elems()
	var v core.Verdict
	for sl := 0; sl < m.Slices(); sl++ {
		v.Add(m.checkSlice(&el, sl, true, acc))
	}
	return v.Checks, v.Err
}

// ElemCodewordSpan reports the positions of one randomly chosen element
// codeword, satisfying core.ElemSpanner: single entries under
// SED/SECDED64, storage-consecutive pairs under SECDED128, and a slice
// chunk under CRC32C.
func (m *Matrix) ElemCodewordSpan(pick func(n int) int) (base, span int) {
	switch m.Scheme() {
	case core.SECDED128:
		return pick(len(m.vals)/2) * 2, 2
	case core.CRC32C:
		sl := pick(m.Slices())
		if chunks := m.chunks(sl); chunks > 0 {
			return m.chunk(sl, pick(chunks))
		}
	}
	return pick(len(m.vals)), 1
}

// ---------------------------------------------------------------------------
// Kernels

// Product computes dsts[j] = m xs[j] for every j in a single pass over
// the slices, satisfying core.Layout. Each source vector is decoded once
// into a dense buffer (core.DecodeSources, the prologue all formats
// share); on a full sweep each slice's codewords are verified once
// whatever the width — clean first, repaired only when not — before its
// lanes stream into k window-local accumulators (core.SweepGroups,
// DESIGN.md section 42); per-column results are
// bit-identical to k independent width-1 calls because each lane's sum
// runs in the same entry order per column. Results are committed
// block-wise per window — the sigma sort scatters a slice's outputs
// within its window, so the window is the smallest unit whose output
// blocks have a single owner. Dot requests pending on dsts
// (core.DotRequest) are answered from the sweep.
//
// Workers above 1 split the sigma windows across goroutines. Codewords
// never cross a slice, slices never cross a window, and windows are
// vector-block aligned, so every codeword and every output block has
// exactly one owner: the parallel path is race-free and bit-identical to
// the serial one.
func (m *Matrix) Product(dsts, xs []*core.Vector, workers int, sw core.Sweep) error {
	return core.DecodeSources(dsts, xs, !sw.Sources, func(xbufs [][]float64, ep *core.DotEpilogue) error {
		return m.Stream(dsts, xbufs, workers, sw, ep)
	})
}

// Stream is Product after its source prologue: dsts[j] = m xbufs[j]
// from sources already decoded into dense buffers of at least Cols()
// elements, under sw, every output block written through ep (nil
// without a dot request). The sharded composite calls it with buffers it
// filled itself.
func (m *Matrix) Stream(dsts []*core.Vector, xbufs [][]float64, workers int, sw core.Sweep, ep *core.DotEpilogue) error {
	windows := (m.Rows() + m.sigma - 1) / m.sigma
	return par.ForEach(windows, workers, 1, func(wlo, whi int) error {
		s := m.newSweep(xbufs, sw)
		for w := wlo; w < whi; w++ {
			if err := s.window(dsts, w, ep); err != nil {
				return err
			}
		}
		return nil
	})
}

// sliceSweep is one goroutine's core.Groups over the slices of its
// σ-windows: the codec view, the sweep's read decision, the k window
// accumulators, and the slice the stream points at — its entries,
// column-major, from storage or a stage, and its lanes, the slice's rows
// (padRow for a dummy lane). base is the window's first row, ncols the
// range of a column and mask the codec's column mask; wild is the
// position of the wild column a failed stream met.
type sliceSweep struct {
	m            *Matrix
	el           core.ColElems
	full, commit bool
	accs, xbufs  [][]float64
	cols         []uint32
	vals         []float64
	lanes        []uint32
	base, ncols  int
	mask         uint32
	wild         int
}

// newSweep starts one goroutine's sweep against the decoded columns
// xbufs under sw, with one flat allocation for the window accumulators,
// sliced per column.
func (m *Matrix) newSweep(xbufs [][]float64, sw core.Sweep) *sliceSweep {
	s := &sliceSweep{m: m, el: m.elems(), full: sw.Full, commit: sw.Commit,
		accs: make([][]float64, len(xbufs)), xbufs: xbufs, ncols: m.Cols()}
	s.mask = s.el.Mask()
	aflat := make([]float64, len(xbufs)*m.sigma)
	for j := range s.accs {
		s.accs[j] = aflat[j*m.sigma : (j+1)*m.sigma]
	}
	return s
}

// window multiplies the slices of σ-window w into the window's
// accumulators through core's sweep and commits the window's output
// rows per column. The σ sort scatters a slice's outputs within its
// window, so the window is the smallest unit whose output blocks have a
// single owner.
func (s *sliceSweep) window(dsts []*core.Vector, w int, ep *core.DotEpilogue) error {
	m := s.m
	s.base = w * m.sigma
	top := min(s.base+m.sigma, m.Rows())
	for _, acc := range s.accs {
		clear(acc)
	}
	if err := core.SweepGroups(s, s.base/C, (top+C-1)/C, len(s.accs), m.Counters()); err != nil {
		return err
	}
	var out [core.BlockLen]float64
	for c, acc := range s.accs {
		for blk := s.base / core.BlockLen; blk*core.BlockLen < top; blk++ {
			lo := blk*core.BlockLen - s.base
			n := copy(out[:], acc[lo:top-s.base])
			clear(out[n:])
			ep.WriteBlock(c, dsts[c], blk, &out)
		}
	}
	return nil
}

// point points the stream at slice sl in cols and vals, entry j of lane
// l at off+j·C+l: storage at the slice's offset, or a stage from 0.
func (s *sliceSweep) point(sl int, cols []uint32, vals []float64, off int) {
	n := s.m.sliceWidth(sl) * C
	s.cols, s.vals, s.lanes = cols[off:off+n], vals[off:off+n], s.m.perm[sl*C:sl*C+C]
}

// Clean is slice sl's clean test: on a full sweep its committing check
// with nothing to commit or count; between full checks nothing.
func (s *sliceSweep) Clean(sl int) (uint64, bool) {
	s.point(sl, s.m.colIdx, s.m.vals, int(s.m.slicePtr[sl]))
	if !s.full {
		return 0, true
	}
	v := s.m.checkSlice(&s.el, sl, false, nil)
	return v.Checks, v.Clean()
}

// Cold is slice sl's cold path: its committing check, the stage of a
// slice that check leaves dirty (a shared matrix hit a live fault), and
// the stream of storage or the stage, whose wild column is its
// BoundsError.
func (s *sliceSweep) Cold(sl int) (uint64, error) {
	var v core.Verdict
	if s.full {
		v = s.m.checkSlice(&s.el, sl, s.commit, s.m.Counters())
		if v.Err == nil && v.Dirty {
			v.Err = s.stage(sl)
		}
	}
	if v.Err == nil && !core.StreamGroup(s, len(s.accs)) {
		v.Err = s.m.boundsErr(int(s.m.slicePtr[sl])+s.wild, s.cols[s.wild]&s.mask)
	}
	return v.Checks, v.Err
}

// Done has nothing to keep: a slice's outputs are written per window.
func (s *sliceSweep) Done(int, bool) {}

// Stream4 is one pass over the slice for columns j..j+3, each lane's
// four sums in registers, with only the column mask and range check
// applied, under every scheme, none included. Each lane's sum runs in
// entry order per column, and the first pass meets every entry, so a
// wild column is found at the entry a width-1 product reports, before
// it is loaded. The slice's arrays are taken per lane, not hoisted: held
// across the entry loop they push its index out of a register.
func (s *sliceSweep) Stream4(j int) bool {
	a, x := (*[4][]float64)(s.accs[j:j+4]), (*[4][]float64)(s.xbufs[j:j+4])
	x0 := x[0][:s.ncols]
	x1, x2, x3 := x[1][:len(x0)], x[2][:len(x0)], x[3][:len(x0)]
	for l := 0; l < C; l++ {
		r := s.lanes[l]
		if r == padRow {
			continue
		}
		cols, mask := s.cols, s.mask
		vals := s.vals[:len(cols)]
		var s0, s1, s2, s3 float64
		for k := l; k < len(cols); k += C {
			col := cols[k] & mask
			if uint(col) >= uint(len(x0)) {
				s.wild = k
				return false
			}
			v := vals[k]
			s0 += v * x0[col]
			s1 += v * x1[col]
			s2 += v * x2[col]
			s3 += v * x3[col]
		}
		i := int(r) - s.base
		a[0][i], a[1][i], a[2][i], a[3][i] = s0, s1, s2, s3
	}
	return true
}

// Stream1 is Stream4 for the one column j.
func (s *sliceSweep) Stream1(j int) bool {
	acc, x := s.accs[j], s.xbufs[j][:s.ncols]
	for l := 0; l < C; l++ {
		r := s.lanes[l]
		if r == padRow {
			continue
		}
		cols, mask := s.cols, s.mask
		vals := s.vals[:len(cols)]
		var sum float64
		for k := l; k < len(cols); k += C {
			col := cols[k] & mask
			if uint(col) >= uint(len(x)) {
				s.wild = k
				return false
			}
			sum += vals[k] * x[col]
		}
		acc[int(r)-s.base] = sum
	}
	return true
}

// stage points the stream at a copy of slice sl repaired by the codec's
// committing check (core.ColElems.DecodeLocal), staged in storage order
// chunk by chunk. Nothing is written to storage or counted: the check
// that found the slice dirty already accounted its checks and
// corrections.
func (s *sliceSweep) stage(sl int) error {
	var cols []uint32
	var vals []float64
	for i := 0; i < s.m.chunks(sl); i++ {
		base, n := s.m.chunk(sl, i)
		c, v, err := s.el.DecodeLocal(base, base, n)
		if err != nil {
			return err
		}
		cols, vals = append(cols, c...), append(vals, v...)
	}
	s.point(sl, cols, vals, 0)
	return nil
}

// boundsErr counts and builds the range-check error for a decoded column
// index at storage position k.
func (m *Matrix) boundsErr(k int, col uint32) error {
	m.Counters().AddBounds(1)
	return &core.BoundsError{Structure: core.StructElements, Index: k, Value: col, Limit: uint32(m.Cols())}
}

// ToCSR decodes and verifies the matrix back into CSR form, satisfying
// core.Layout. Slice padding
// entries are dropped; the logical entries (including any explicit zeros
// of the source) are reproduced exactly.
func (m *Matrix) ToCSR() (*csr.Matrix, error) {
	if _, err := m.CheckAll(); err != nil {
		return nil, err
	}
	el := m.elems()
	mask := el.Mask()
	entries := make([]csr.Entry, 0, m.NNZ())
	for sl := 0; sl < m.Slices(); sl++ {
		for l := 0; l < C; l++ {
			sr := sl*C + l
			r := m.perm[sr]
			if r == padRow {
				continue
			}
			for j := 0; j < int(m.rowLen[sr]); j++ {
				k := m.entryIndex(sl, l, j)
				entries = append(entries, csr.Entry{
					Row: int(r),
					Col: int(m.colIdx[k] & mask),
					Val: m.vals[k],
				})
			}
		}
	}
	return csr.New(m.Rows(), m.Cols(), entries)
}
