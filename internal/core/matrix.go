package core

import (
	"cmp"
	"fmt"
	"math/bits"

	"abft/internal/csr"
	"abft/internal/ecc"
)

// MatrixOptions configures the protection applied to a CSR matrix.
type MatrixOptions struct {
	// ElemScheme protects the (value, column-index) element stream by
	// embedding redundancy in the unused top bits of the column indices
	// (paper Fig 1).
	ElemScheme Scheme
	// RowPtrScheme protects the row-pointer vector by embedding redundancy
	// in its unused top bits (paper Fig 2).
	RowPtrScheme Scheme
	// Backend selects the CRC32C implementation (hardware by default).
	Backend ecc.Backend
}

// Matrix is a CSR sparse matrix whose three vectors carry embedded ECC
// (paper section VI-A). Matrix values are stored exactly — the redundancy
// lives in the spare bits of the integer vectors, so no precision is lost
// and no extra memory is used.
type Matrix struct {
	Shell
	rowScheme Scheme
	backend   ecc.Backend

	rowptr []uint32 // rows+1 entries padded to a group multiple
	colIdx []uint32
	vals   []float64
}

// NewMatrix builds a protected copy of src. The source matrix is not
// retained. Rows too short for CRC32C and an odd entry count under
// SECDED128 are padded with explicit zeros; construction fails when the
// matrix exceeds a scheme's size constraints (column count, NNZ).
func NewMatrix(src *csr.Matrix, opt MatrixOptions) (*Matrix, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	es, rs := opt.ElemScheme, opt.RowPtrScheme
	if src.Cols32() > es.MaxCols() {
		return nil, fmt.Errorf("core: %d columns exceed %s limit %d", src.Cols32(), es, es.MaxCols())
	}
	work := src
	if es == CRC32C && work.MinRowEntries() < 4 {
		work = work.PadRows(4)
	}
	if es == SECDED128 && work.NNZ()%2 == 1 {
		work = padOneEntry(work)
	}
	if work.NNZ() > rs.MaxNNZ() {
		return nil, fmt.Errorf("core: %d entries exceed %s row-pointer limit %d", work.NNZ(), rs, rs.MaxNNZ())
	}
	if es == SED && work.NNZ() > es.MaxNNZ() {
		return nil, fmt.Errorf("core: %d entries exceed sed element limit %d", work.NNZ(), es.MaxNNZ())
	}

	rows := work.Rows()
	g := rs.RowPtrGroup()
	padded := (rows + 1 + g - 1) / g * g
	m := &Matrix{
		rowScheme: rs,
		backend:   opt.Backend,
		rowptr:    make([]uint32, padded),
		colIdx:    append([]uint32(nil), work.Cols...),
		vals:      append([]float64(nil), work.Vals...),
	}
	m.Init(m, rows, work.Cols32(), work.NNZ(), es, es != None || rs != None)
	copy(m.rowptr, work.RowPtr)
	ig := m.rowGroups()
	for grp := 0; grp < padded/g; grp++ {
		ig.Encode(grp)
	}
	m.encodeElementsAll()
	return m, nil
}

// padOneEntry appends a single explicit zero entry to the last row so that
// the total entry count becomes even (required by SECDED128 pairing).
func padOneEntry(src *csr.Matrix) *csr.Matrix {
	out := src.Clone()
	col := src.Rows() - 1
	if col >= src.Cols32() {
		col = src.Cols32() - 1
	}
	out.Cols = append(out.Cols, uint32(col))
	out.Vals = append(out.Vals, 0)
	out.RowPtr[src.Rows()]++
	return out
}

// RowPtrScheme returns the row-pointer protection scheme.
func (m *Matrix) RowPtrScheme() Scheme { return m.rowScheme }

// SetCRCBackend selects the CRC32C implementation.
func (m *Matrix) SetCRCBackend(b ecc.Backend) { m.backend = b }

// RawVals exposes stored values for fault injection.
func (m *Matrix) RawVals() []float64 { return m.vals }

// RawCols exposes stored column indices (data + embedded ECC) for fault
// injection.
func (m *Matrix) RawCols() []uint32 { return m.colIdx }

// RawRowPtr exposes the stored row-pointer entries (data + embedded ECC)
// for fault injection.
func (m *Matrix) RawRowPtr() []uint32 { return m.rowptr }

func (m *Matrix) boundsErr(s Structure, idx int, val, limit uint32) error {
	m.counters.AddBounds(1)
	return &BoundsError{Structure: s, Index: idx, Value: val, Limit: limit}
}

// ---------------------------------------------------------------------------
// Row-pointer protection

// rowGroups returns the index-group codec over this matrix's row
// pointers, built per call like elems.
func (m *Matrix) rowGroups() indexGroups {
	return indexGroups{Scheme: m.rowScheme, Backend: m.backend, Idx: m.rowptr}
}

// rowPtrCursor streams row-pointer values with one integrity check per
// codeword group. Values are read through a locally decoded copy of the
// current group, so callers observe corrected pointers even when the
// correction cannot be committed to shared storage. With check false
// only range validity is enforced. The codewords themselves are the
// index-group codec's; the cursor keeps positions only.
type rowPtrCursor struct {
	m      *Matrix
	idx    indexGroups
	check  bool
	commit bool
	group  int       // currently verified group, -1 initially
	checks uint64    // group checks performed (flushed by the caller)
	vals   [8]uint32 // locally corrected decode of group
}

// cursor starts a walk over m's row pointers: check verifies their
// groups, commit lets the walk repair storage. An unchecked cursor reads
// masked payload and range-checks it.
func (m *Matrix) cursor(check, commit bool) rowPtrCursor {
	return rowPtrCursor{m: m, idx: m.rowGroups(), check: check && m.rowScheme != None, commit: commit, group: -1}
}

func (c *rowPtrCursor) value(r int) (uint32, error) {
	var v uint32
	if !c.check {
		v = c.idx.Idx[r] & c.idx.Mask()
	} else {
		g := c.idx.Group()
		if grp := r / g; grp != c.group {
			c.checks++
			if _, err := c.idx.Decode(grp, c.commit, &c.vals, c.m.counters); err != nil {
				return 0, err
			}
			c.group = grp
		}
		v = c.vals[r%g]
	}
	if v > uint32(c.m.nnz) {
		return 0, c.m.boundsErr(StructRowPtr, r, v, uint32(c.m.nnz)+1)
	}
	return v, nil
}

// bounds returns row r's entry range [lo, hi) from pointers r and r+1,
// which must be monotone. The cursor keeps the group of pointer r+1, so
// the next row's bounds reads its first pointer for no further check.
func (c *rowPtrCursor) bounds(r int) (lo, hi int, err error) {
	l, err := c.value(r)
	if err != nil {
		return 0, 0, err
	}
	h, err := c.value(r + 1)
	if err != nil {
		return 0, 0, err
	}
	if l > h {
		return 0, 0, c.m.boundsErr(StructRowPtr, r, l, h)
	}
	return int(l), int(h), nil
}

// window is the block form of value for the output block of n <=
// BlockLen rows at r0 (a multiple of BlockLen): it fills p[0..n] with
// the pointers r0..r0+n. On a checking cursor the groups the block needs
// and the cursor does not already hold go through the codec's clean test
// — no decode, no correction, no count — and the held group supplies its
// decoded values, so a correction this sweep could not commit is never
// re-read from storage. Groups are 1, 2, 4 or 8 entries and r0 is a
// multiple of every size, so p is laid out group by group from p[0]. It
// returns the groups checked and whether all were clean; the cursor
// itself is left as it was (advance moves it) and counts nothing.
func (c *rowPtrCursor) window(r0, n int, p *[2 * BlockLen]uint32) (groups uint64, ok bool) {
	mask := c.idx.Mask()
	if !c.check {
		for i, x := range c.idx.Idx[r0 : r0+n+1] {
			p[i] = x & mask
		}
		return 0, true
	}
	shift := bits.TrailingZeros(uint(c.idx.Group()))
	g := 1 << shift
	from, to := r0, (r0+n)>>shift<<shift+g
	if r0>>shift == c.group {
		copy(p[:g], c.vals[:g])
		from += g
	}
	q := p[from-r0 : to-r0]
	for i, x := range c.idx.Idx[from:to] {
		q[i] = x & mask
	}
	return uint64((to - from) >> shift), c.idx.clean(from, to)
}

// advance moves a checking cursor past a clean window: it now holds the
// group of pointer r0+n, decoded in p. The window's groups are counted
// by its sweep.
func (c *rowPtrCursor) advance(r0, n int, p *[2 * BlockLen]uint32) {
	if !c.check {
		return
	}
	shift := bits.TrailingZeros(uint(c.idx.Group()))
	c.group = (r0 + n) >> shift
	copy(c.vals[:], p[n>>shift<<shift:])
}

// ---------------------------------------------------------------------------
// Element protection

// elems returns the column-element codec over this matrix's own element
// arrays. The view is built per call, not stored: it costs a few register
// moves and keeps the matrix exactly as large as its storage.
func (m *Matrix) elems() ColElems {
	return ColElems{Scheme: m.scheme, Backend: m.backend, Vals: m.vals, Cols: m.colIdx}
}

func (m *Matrix) encodeElementsAll() {
	el := m.elems()
	if m.scheme != CRC32C {
		el.Encode(0, len(m.colIdx))
		return
	}
	// One CRC32C codeword per row.
	cur := m.cursor(false, false)
	for r := 0; r < m.rows; r++ {
		lo, _ := cur.value(r)
		hi, _ := cur.value(r + 1)
		el.EncodeRun(int(lo), int(hi-lo))
	}
}

// ---------------------------------------------------------------------------
// Whole-matrix operations

// VerifyAll verifies and repairs every row-pointer group and element
// codeword, satisfying Layout: the body of Shell.CheckAll.
func (m *Matrix) VerifyAll(acc *Counters) (checks uint64, err error) {
	var v Verdict
	if m.rowScheme != None {
		ig := m.rowGroups()
		var tmp [8]uint32
		for g := 0; g < len(ig.Idx)/ig.Group(); g++ {
			_, e := ig.Decode(g, true, &tmp, acc)
			v.Note(false, e)
		}
	}
	el := m.elems()
	if m.scheme != CRC32C {
		v.Add(el.Check(0, len(m.colIdx), true, acc))
		return v.Checks, v.Err
	}
	cur := m.cursor(false, false)
	for r := 0; r < m.rows; r++ {
		lo, e := cur.value(r)
		hi, e2 := cur.value(r + 1)
		if e = cmp.Or(e, e2); e != nil || lo > hi {
			v.Note(false, e)
		} else {
			v.Note(el.CheckRun(r, int(lo), int(hi-lo), true, acc))
		}
	}
	return v.Checks, v.Err
}

// ToCSR decodes the matrix back into an unprotected CSR structure,
// verifying every codeword on the way, satisfying Layout.
func (m *Matrix) ToCSR() (*csr.Matrix, error) {
	if _, err := m.CheckAll(); err != nil {
		return nil, err
	}
	entries := make([]csr.Entry, 0, m.nnz)
	el := m.elems()
	colMask := el.Mask()
	cur := m.cursor(false, false)
	for r := 0; r < m.rows; r++ {
		lo, err := cur.value(r)
		if err != nil {
			return nil, err
		}
		hi, err := cur.value(r + 1)
		if err != nil {
			return nil, err
		}
		for k := lo; k < hi; k++ {
			entries = append(entries, csr.Entry{
				Row: r,
				Col: int(m.colIdx[k] & colMask),
				Val: m.vals[k],
			})
		}
	}
	return csr.New(m.rows, m.cols, entries)
}
