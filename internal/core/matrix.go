package core

import (
	"encoding/binary"
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
	maxRow    int // widest row

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
	for r := 0; r < rows; r++ {
		if n := int(work.RowPtr[r+1] - work.RowPtr[r]); n > m.maxRow {
			m.maxRow = n
		}
	}
	m.encodeRowPtrAll()
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

// MaxRowEntries returns the widest row's entry count.
func (m *Matrix) MaxRowEntries() int { return m.maxRow }

// ElemScheme returns the element protection scheme: Scheme under the
// name that pairs with RowPtrScheme.
func (m *Matrix) ElemScheme() Scheme { return m.scheme }

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

// rowPtrFault counts and builds the uncorrectable-error value for
// row-pointer group g.
func (m *Matrix) rowPtrFault(c *Counters, g int, detail string) error {
	c.AddDetected(1)
	return &FaultError{Structure: StructRowPtr, Scheme: m.rowScheme, Index: g, Detail: detail}
}

func (m *Matrix) boundsErr(s Structure, idx int, val, limit uint32) error {
	m.counters.AddBounds(1)
	return &BoundsError{Structure: s, Index: idx, Value: val, Limit: limit}
}

// ---------------------------------------------------------------------------
// Row-pointer protection

// rowPtrMaskFor returns the AND-mask isolating the data bits of a stored
// row-pointer entry.
func rowPtrMaskFor(s Scheme) uint32 {
	switch s {
	case None:
		return 0xFFFF_FFFF
	case SED:
		return sedColMask
	default:
		return rowPtrMask
	}
}

func (m *Matrix) encodeRowPtrAll() {
	switch m.rowScheme {
	case None:
	case SED:
		for i, r := range m.rowptr {
			r &= sedColMask
			m.rowptr[i] = r | uint32(ecc.Parity64(uint64(r)))<<31
		}
	case SECDED64:
		for g := 0; g*2 < len(m.rowptr); g++ {
			m.encodeRowGroup(g)
		}
	case SECDED128:
		for g := 0; g*4 < len(m.rowptr); g++ {
			m.encodeRowGroup(g)
		}
	case CRC32C:
		for g := 0; g*8 < len(m.rowptr); g++ {
			m.encodeRowGroup(g)
		}
	}
}

// encodeRowGroup recomputes the redundancy of row-pointer group g from the
// data bits currently stored.
func (m *Matrix) encodeRowGroup(g int) {
	switch m.rowScheme {
	case None:
	case SED:
		r := m.rowptr[g] & sedColMask
		m.rowptr[g] = r | uint32(ecc.Parity64(uint64(r)))<<31
	case SECDED64:
		e := m.rowptr[2*g : 2*g+2]
		x := codecRow64.Encode64(pack32(e[0]&rowPtrMask, e[1]&rowPtrMask))
		e[0], e[1] = uint32(x), uint32(x>>32)
	case SECDED128:
		e := m.rowptr[4*g : 4*g+4]
		x, y := codecRow128.Encode128(pack32(e[0]&rowPtrMask, e[1]&rowPtrMask), pack32(e[2]&rowPtrMask, e[3]&rowPtrMask))
		e[0], e[1], e[2], e[3] = uint32(x), uint32(x>>32), uint32(y), uint32(y>>32)
	case CRC32C:
		// Clear the slots, checksum the group where it lies, fill them.
		e := (*[8]uint32)(m.rowptr[8*g : 8*g+8])
		for i := range e {
			e[i] &= rowPtrMask
		}
		crc, _ := ecc.GroupChecksum(e, m.backend)
		for i := range e {
			e[i] |= (crc >> (4 * uint(i)) & 0xF) << 28
		}
	}
}

// decodeRowGroup verifies row-pointer group g and writes its masked data
// entries into dst (the group's entries occupy dst[0:RowPtrGroup()]).
// Correctable faults are counted and always applied to dst; storage is
// repaired only when commit is true. The first return reports whether a
// correction was found — when it was and commit is false, storage still
// holds the fault and only dst carries the corrected values.
func (m *Matrix) decodeRowGroup(g int, commit bool, dst *[8]uint32) (corrected bool, err error) {
	return m.decodeRowGroupCounting(g, commit, dst, m.counters)
}

// decodeRowGroupCounting is decodeRowGroup recording corrections and
// detections into c instead of the attached counters.
func (m *Matrix) decodeRowGroupCounting(g int, commit bool, dst *[8]uint32, c *Counters) (corrected bool, err error) {
	switch m.rowScheme {
	case None:
		dst[0] = m.rowptr[g]
	case SED:
		r := m.rowptr[g]
		if ecc.Parity64(uint64(r)) != 0 {
			return false, m.rowPtrFault(c, g, "parity mismatch")
		}
		dst[0] = r & sedColMask
	case SECDED64:
		// The codeword goes to the kernel by value; only a non-zero
		// accumulator pays for the resolve.
		e := m.rowptr[2*g : 2*g+2]
		if codecRow64.Acc64(pack32(e[0], e[1])) != 0 {
			return m.resolveRowGroup(g, commit, dst, c)
		}
		dst[0], dst[1] = e[0]&rowPtrMask, e[1]&rowPtrMask
	case SECDED128:
		e := m.rowptr[4*g : 4*g+4]
		if codecRow128.Acc128(pack32(e[0], e[1]), pack32(e[2], e[3])) != 0 {
			return m.resolveRowGroup(g, commit, dst, c)
		}
		dst[0], dst[1], dst[2], dst[3] = e[0]&rowPtrMask, e[1]&rowPtrMask, e[2]&rowPtrMask, e[3]&rowPtrMask
	case CRC32C:
		// Checksum the group as stored; only a mismatch pays for the
		// codeword image and its repair (DESIGN.md section 31).
		e := (*[8]uint32)(m.rowptr[8*g : 8*g+8])
		if crc, stored := ecc.GroupChecksum(e, m.backend); crc != stored {
			var img [32]byte
			for i, x := range e {
				binary.LittleEndian.PutUint32(img[4*i:], x&rowPtrMask)
			}
			if !ecc.RepairCodeword(img[:], rowSlot, stored, crc) {
				return false, m.rowPtrFault(c, g, "crc32c mismatch beyond correction depth")
			}
			c.AddCorrected(1)
			for i := range e {
				x := binary.LittleEndian.Uint32(img[4*i:])
				if commit {
					e[i] = x
				}
				dst[i] = x & rowPtrMask
			}
			return true, nil
		}
		for i, x := range e {
			dst[i] = x & rowPtrMask
		}
	}
	return corrected, nil
}

// pack32 packs two row-pointer entries into one codeword word.
func pack32(lo, hi uint32) uint64 { return uint64(lo) | uint64(hi)<<32 }

// resolveRowGroup is the SECDED cold path of decodeRowGroup, entered when
// the accumulator of group g was non-zero: a single flip is repaired in
// dst (and in storage when commit is true) and counted into c, anything
// else is the group's fault.
func (m *Matrix) resolveRowGroup(g int, commit bool, dst *[8]uint32, c *Counters) (corrected bool, err error) {
	n := m.rowScheme.RowPtrGroup()
	e := m.rowptr[n*g : n*g+n]
	codec, cw := codecRow64, ecc.Word4{pack32(e[0], e[1])}
	if m.rowScheme == SECDED128 {
		codec, cw[1] = codecRow128, pack32(e[2], e[3])
	}
	switch res, _ := codec.Check(&cw); res {
	case ecc.Corrected:
		corrected = true
		c.AddCorrected(1)
	case ecc.Detected:
		return false, m.rowPtrFault(c, g, "secded double-bit error")
	}
	for i := range e {
		x := uint32(cw[i/2] >> (32 * uint(i%2)))
		if commit {
			e[i] = x
		}
		dst[i] = x & rowPtrMask
	}
	return corrected, nil
}

// rowSlot places bit k of a row-pointer group's checksum in its codeword
// image: bit 28+k%4 of entry k/4.
func rowSlot(k int) int { return 32*(k/4) + 28 + k%4 }

// rowPtrCursor streams row-pointer values with one integrity check per
// codeword group. Values are read through a locally decoded copy of the
// current group, so callers observe corrected pointers even when the
// correction cannot be committed to shared storage. With check false
// only range validity is enforced.
type rowPtrCursor struct {
	m      *Matrix
	check  bool
	commit bool
	group  int       // currently verified group, -1 initially
	checks uint64    // group checks performed (flushed by the caller)
	vals   [8]uint32 // locally corrected decode of group
}

func (c *rowPtrCursor) value(r int) (uint32, error) {
	if !c.check {
		v := c.m.rowptr[r] & rowPtrMaskFor(c.m.rowScheme)
		if v > uint32(c.m.nnz) {
			return 0, c.m.boundsErr(StructRowPtr, r, v, uint32(c.m.nnz)+1)
		}
		return v, nil
	}
	g := c.m.rowScheme.RowPtrGroup()
	grp := r / g
	if grp != c.group {
		c.checks++
		if _, err := c.m.decodeRowGroup(grp, c.commit, &c.vals); err != nil {
			return 0, err
		}
		c.group = grp
	}
	v := c.vals[r%g]
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
// the pointers r0..r0+n. On a checking cursor each group the block needs
// and the cursor does not already hold is checked by value — one kernel
// call per group, no decode, no correction, no count — and the held
// group supplies its decoded values, so a correction this sweep could
// not commit is never re-read from storage. Groups are 1, 2, 4 or 8
// entries and r0 is a multiple of every size, so p is laid out group by
// group from p[0]. It returns the groups checked and whether all were
// clean; the cursor itself is left as it was (advance moves it).
func (c *rowPtrCursor) window(r0, n int, p *[2 * BlockLen]uint32) (groups uint64, ok bool) {
	m := c.m
	mask := rowPtrMaskFor(m.rowScheme)
	if !c.check {
		for i, x := range m.rowptr[r0 : r0+n+1] {
			p[i] = x & mask
		}
		return 0, true
	}
	shift := bits.TrailingZeros(uint(m.rowScheme.RowPtrGroup()))
	g := 1 << shift
	from, to := r0, (r0+n)>>shift<<shift+g
	if r0>>shift == c.group {
		copy(p[:g], c.vals[:g])
		from += g
	}
	rp, q := m.rowptr[from:to], p[from-r0:to-r0]
	var acc uint32
	switch m.rowScheme {
	case SED:
		for _, x := range rp {
			acc |= uint32(ecc.Parity64(uint64(x)))
		}
	case SECDED64:
		for i := 0; i+1 < len(rp); i += 2 {
			acc |= uint32(codecRow64.Acc64(pack32(rp[i], rp[i+1])))
		}
	case SECDED128:
		for i := 0; i+3 < len(rp); i += 4 {
			acc |= uint32(codecRow128.Acc128(pack32(rp[i], rp[i+1]), pack32(rp[i+2], rp[i+3])))
		}
	case CRC32C:
		for i := 0; i+7 < len(rp); i += 8 {
			crc, stored := ecc.GroupChecksum((*[8]uint32)(rp[i:i+8]), m.backend)
			acc |= crc ^ stored
		}
	}
	for i, x := range rp {
		q[i] = x & mask
	}
	return uint64(len(rp) >> shift), acc == 0
}

// advance moves a checking cursor past a clean window: it now holds the
// group of pointer r0+n, decoded in p, and counts the window's groups.
func (c *rowPtrCursor) advance(r0, n int, p *[2 * BlockLen]uint32, groups uint64) {
	if !c.check {
		return
	}
	shift := bits.TrailingZeros(uint(c.m.rowScheme.RowPtrGroup()))
	c.group = (r0 + n) >> shift
	copy(c.vals[:], p[n>>shift<<shift:])
	c.checks += groups
}

// RowRange returns the half-open entry range [lo, hi) of row r, fully
// verifying (and repairing where possible) the codewords it touches.
func (m *Matrix) RowRange(r int) (lo, hi int, err error) {
	if r < 0 || r >= m.rows {
		return 0, 0, fmt.Errorf("core: row %d out of range [0,%d)", r, m.rows)
	}
	cur := rowPtrCursor{m: m, check: true, commit: true, group: -1}
	lo, hi, err = cur.bounds(r)
	m.counters.AddChecks(cur.checks)
	return lo, hi, err
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
	cur := rowPtrCursor{m: m, check: false, group: -1}
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
	record := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	if m.rowScheme != None {
		groups := len(m.rowptr) / m.rowScheme.RowPtrGroup()
		checks += uint64(groups)
		var tmp [8]uint32
		for g := 0; g < groups; g++ {
			_, e := m.decodeRowGroupCounting(g, true, &tmp, acc)
			record(e)
		}
	}
	el := m.elems()
	if m.scheme != CRC32C {
		_, n, e := el.Check(0, len(m.colIdx), true, acc)
		checks += n
		record(e)
	} else {
		checks += uint64(m.rows)
		cur := rowPtrCursor{m: m, check: false, group: -1}
		for r := 0; r < m.rows; r++ {
			lo, e := cur.value(r)
			record(e)
			hi, e2 := cur.value(r + 1)
			record(e2)
			if e == nil && e2 == nil && lo <= hi {
				_, e3 := el.CheckRun(r, int(lo), int(hi-lo), true, acc)
				record(e3)
			}
		}
	}
	return checks, err
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
	cur := rowPtrCursor{m: m, check: false, group: -1}
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
