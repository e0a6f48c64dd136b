// Package coo implements ABFT protection for sparse matrices in
// coordinate (COO) format, the second storage format covered by the
// paper's predecessor (McIntosh-Smith et al., "Application-based fault
// tolerance techniques for sparse matrix solvers", IJHPCA): every element
// is a (row, column, value) triplet whose redundancy is embedded in the
// unused top bits of the two 32-bit indices, again with zero storage
// overhead.
//
// Layouts per scheme (a COO element is val(64) | row(32) | col(32), a
// 128-bit codeword):
//
//	SED        parity in bit 31 of the row index; dims <= 2^31-1
//	SECDED64   8 check bits in the top nibbles of row and column;
//	           dims <= 2^28-1 (the (128,120) code fits exactly)
//	SECDED128  9 check bits across a two-element (256-bit) codeword;
//	           dims <= 2^28-1
//	CRC32C     one CRC32C per 8-element group, stored nibble-wise in the
//	           row-index top nibbles; dims <= 2^28-1
//
// COO SpMV is a scatter (dst[row] += val*x[col]), so unlike the CSR
// kernel it accumulates into a dense buffer and commits the protected
// output vector block-wise afterwards — the buffered-write strategy of
// paper section VI-C applied to a scatter pattern.
package coo

import (
	"encoding/binary"
	"fmt"
	"math"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/par"
)

// Codecs for the embedded layouts. The 128-bit element codeword is
// [val | row | col]; physical check positions sit in the index top bits.
var (
	// codecElem64: top nibble of row (phys 92..95) and column (124..127).
	codecElem64 = ecc.MustSECDED(128, []int{92, 93, 94, 95, 124, 125, 126, 127})
	// codecElem128: two elements (256 bits); 9 check bits in the row top
	// nibbles of both elements plus the first column top bit; remaining
	// spare bits are protected zero padding.
	codecElem128 = ecc.MustSECDED(256, []int{92, 93, 94, 95, 124, 220, 221, 222, 223})
)

const (
	sedIdxMask = 0x7FFF_FFFF
	eccIdxMask = 0x0FFF_FFFF
	crcGroup   = 8
)

// Matrix is a sparse matrix in COO format with embedded ECC.
type Matrix struct {
	scheme     core.Scheme
	backend    ecc.Backend
	rows, cols int
	nnz        int // logical entries (excluding group padding)

	rowIdx []uint32
	colIdx []uint32
	vals   []float64

	counters *core.Counters
	// mode is the read discipline Apply runs under; see SetReadMode.
	mode core.ReadMode
}

// Options configures COO protection.
type Options struct {
	// Scheme protects the element triplets.
	Scheme core.Scheme
	// Backend selects the CRC32C implementation.
	Backend ecc.Backend
}

// maxDim returns the largest representable index for the scheme.
func maxDim(s core.Scheme) int {
	switch s {
	case core.None:
		return 1<<32 - 1
	case core.SED:
		return 1<<31 - 1
	default:
		return 1<<28 - 1
	}
}

// NewMatrix builds a protected COO copy of src (entries in row-major
// order). CRC32C pads the element count to a multiple of 8 with zero
// triplets; SECDED128 pads to a multiple of 2.
func NewMatrix(src *csr.Matrix, opt Options) (*Matrix, error) {
	if err := src.Validate(); err != nil {
		return nil, err
	}
	s := opt.Scheme
	if src.Rows() > maxDim(s) || src.Cols32() > maxDim(s) {
		return nil, fmt.Errorf("coo: %dx%d exceeds %s index limit %d",
			src.Rows(), src.Cols32(), s, maxDim(s))
	}
	m := &Matrix{
		scheme:  s,
		backend: opt.Backend,
		rows:    src.Rows(),
		cols:    src.Cols32(),
		nnz:     src.NNZ(),
	}
	pad := src.NNZ()
	switch s {
	case core.SECDED128:
		pad = (pad + 1) / 2 * 2
	case core.CRC32C:
		pad = (pad + crcGroup - 1) / crcGroup * crcGroup
	}
	m.rowIdx = make([]uint32, pad)
	m.colIdx = make([]uint32, pad)
	m.vals = make([]float64, pad)
	k := 0
	for r := 0; r < src.Rows(); r++ {
		for e := src.RowPtr[r]; e < src.RowPtr[r+1]; e++ {
			m.rowIdx[k] = uint32(r)
			m.colIdx[k] = src.Cols[e]
			m.vals[k] = src.Vals[e]
			k++
		}
	}
	m.encodeAll()
	return m, nil
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of logical entries.
func (m *Matrix) NNZ() int { return m.nnz }

// Scheme returns the protection scheme.
func (m *Matrix) Scheme() core.Scheme { return m.scheme }

// SetCounters attaches a statistics accumulator.
func (m *Matrix) SetCounters(c *core.Counters) { m.counters = c }

// SetReadMode selects the read discipline for Apply. ModeShared marks
// the matrix as applied concurrently from multiple goroutines: Apply
// stops committing corrections to storage (they are still counted and
// the checks still detect), leaving repair to Scrub, which the owner
// must serialize against Apply. Set before the matrix becomes visible
// to other goroutines.
func (m *Matrix) SetReadMode(mode core.ReadMode) { m.mode = mode }

// ReadMode returns the configured read discipline.
func (m *Matrix) ReadMode() core.ReadMode { return m.mode }

// SetShared is the deprecated boolean precursor of SetReadMode: true
// maps to ModeShared, false to ModeExclusive.
//
// Deprecated: use SetReadMode.
func (m *Matrix) SetShared(shared bool) {
	if shared {
		m.SetReadMode(core.ModeShared)
	} else {
		m.SetReadMode(core.ModeExclusive)
	}
}

// RawRows exposes the stored row indices for fault injection.
func (m *Matrix) RawRows() []uint32 { return m.rowIdx }

// RawCols exposes the stored column indices for fault injection.
func (m *Matrix) RawCols() []uint32 { return m.colIdx }

// RawVals exposes the stored values for fault injection.
func (m *Matrix) RawVals() []float64 { return m.vals }

// idxMask returns the AND-mask isolating the data bits of an index.
func (m *Matrix) idxMask() uint32 {
	switch m.scheme {
	case core.None:
		return 0xFFFF_FFFF
	case core.SED:
		return sedIdxMask
	default:
		return eccIdxMask
	}
}

func (m *Matrix) encodeAll() {
	switch m.scheme {
	case core.None:
	case core.SED:
		for k := range m.vals {
			m.encodeSED(k)
		}
	case core.SECDED64:
		for k := range m.vals {
			m.encode64(k)
		}
	case core.SECDED128:
		for t := 0; 2*t < len(m.vals); t++ {
			m.encodePair(t)
		}
	case core.CRC32C:
		var img [16 * crcGroup]byte
		for g := 0; g*crcGroup < len(m.vals); g++ {
			m.encodeGroupCRC(g, &img)
		}
	}
}

// word1 packs the two indices of element k into the codeword's second word.
func word1(row, col uint32) uint64 {
	return uint64(row) | uint64(col)<<32
}

func (m *Matrix) encodeSED(k int) {
	r := m.rowIdx[k] & sedIdxMask
	p := ecc.Parity64(math.Float64bits(m.vals[k]) ^ word1(r, m.colIdx[k]))
	m.rowIdx[k] = r | uint32(p)<<31
}

func (m *Matrix) encode64(k int) {
	cw := ecc.Word4{
		math.Float64bits(m.vals[k]),
		word1(m.rowIdx[k]&eccIdxMask, m.colIdx[k]&eccIdxMask),
	}
	codecElem64.Encode(&cw)
	m.rowIdx[k] = uint32(cw[1])
	m.colIdx[k] = uint32(cw[1] >> 32)
}

func (m *Matrix) encodePair(t int) {
	k := 2 * t
	cw := ecc.Word4{
		math.Float64bits(m.vals[k]),
		word1(m.rowIdx[k]&eccIdxMask, m.colIdx[k]&eccIdxMask),
		math.Float64bits(m.vals[k+1]),
		word1(m.rowIdx[k+1]&eccIdxMask, m.colIdx[k+1]&eccIdxMask),
	}
	codecElem128.Encode(&cw)
	m.rowIdx[k] = uint32(cw[1])
	m.colIdx[k] = uint32(cw[1] >> 32)
	m.rowIdx[k+1] = uint32(cw[3])
	m.colIdx[k+1] = uint32(cw[3] >> 32)
}

// encodeGroupCRC recomputes the checksum of 8-element group g; the CRC is
// stored nibble-wise in the row-index top nibbles. img is the caller's
// scratch for the group image (it escapes into hash/crc32, so a per-call
// local would cost one heap allocation per group).
func (m *Matrix) encodeGroupCRC(g int, img *[16 * crcGroup]byte) {
	base := g * crcGroup
	for i := 0; i < crcGroup; i++ {
		k := base + i
		m.rowIdx[k] &= eccIdxMask
		binary.LittleEndian.PutUint64(img[16*i:], math.Float64bits(m.vals[k]))
		binary.LittleEndian.PutUint32(img[16*i+8:], m.rowIdx[k])
		binary.LittleEndian.PutUint32(img[16*i+12:], m.colIdx[k])
	}
	crcbits := ecc.Checksum(img[:], m.backend)
	for i := 0; i < crcGroup; i++ {
		m.rowIdx[base+i] |= (crcbits >> (4 * uint(i)) & 0xF) << 28
	}
}

// checkSED verifies element k (detection only).
func (m *Matrix) checkSED(k int) error {
	if ecc.Parity64(math.Float64bits(m.vals[k])^word1(m.rowIdx[k], m.colIdx[k])) != 0 {
		return m.fault(k, "parity mismatch")
	}
	return nil
}

func (m *Matrix) fault(idx int, detail string) error {
	m.counters.AddDetected(1)
	return &core.FaultError{
		Structure: core.StructElements,
		Scheme:    m.scheme,
		Index:     idx,
		Detail:    detail,
	}
}

// check64 verifies element k, repairing single flips when commit is true.
// The first return reports whether a correction was found — storage is
// stale when it was and commit was false.
func (m *Matrix) check64(k int, commit bool) (bool, error) {
	cw := ecc.Word4{
		math.Float64bits(m.vals[k]),
		word1(m.rowIdx[k], m.colIdx[k]),
	}
	switch res, _ := codecElem64.Check(&cw); res {
	case ecc.Corrected:
		if commit {
			m.vals[k] = math.Float64frombits(cw[0])
			m.rowIdx[k] = uint32(cw[1])
			m.colIdx[k] = uint32(cw[1] >> 32)
		}
		m.counters.AddCorrected(1)
		return true, nil
	case ecc.Detected:
		return false, m.fault(k, "secded64 double-bit error")
	}
	return false, nil
}

// checkPair verifies element pair t. The first return reports whether a
// correction was found — storage is stale when it was and commit was
// false.
func (m *Matrix) checkPair(t int, commit bool) (bool, error) {
	k := 2 * t
	cw := ecc.Word4{
		math.Float64bits(m.vals[k]),
		word1(m.rowIdx[k], m.colIdx[k]),
		math.Float64bits(m.vals[k+1]),
		word1(m.rowIdx[k+1], m.colIdx[k+1]),
	}
	switch res, _ := codecElem128.Check(&cw); res {
	case ecc.Corrected:
		if commit {
			m.vals[k] = math.Float64frombits(cw[0])
			m.rowIdx[k] = uint32(cw[1])
			m.colIdx[k] = uint32(cw[1] >> 32)
			m.vals[k+1] = math.Float64frombits(cw[2])
			m.rowIdx[k+1] = uint32(cw[3])
			m.colIdx[k+1] = uint32(cw[3] >> 32)
		}
		m.counters.AddCorrected(1)
		return true, nil
	case ecc.Detected:
		return false, m.fault(t, "secded128 double-bit error")
	}
	return false, nil
}

// checkGroupCRC verifies 8-element group g. img receives the group's
// *corrected* image (16 bytes per element: value, masked row, column), so
// a caller that cannot commit a correction to shared storage can still
// stream the repaired group. The first return reports whether a
// correction was found — storage is stale when it was and commit was
// false.
func (m *Matrix) checkGroupCRC(g int, commit bool, img *[16 * crcGroup]byte) (bool, error) {
	base := g * crcGroup
	var stored uint32
	for i := 0; i < crcGroup; i++ {
		k := base + i
		binary.LittleEndian.PutUint64(img[16*i:], math.Float64bits(m.vals[k]))
		binary.LittleEndian.PutUint32(img[16*i+8:], m.rowIdx[k]&eccIdxMask)
		binary.LittleEndian.PutUint32(img[16*i+12:], m.colIdx[k])
		stored |= (m.rowIdx[k] >> 28) << (4 * uint(i))
	}
	crc := ecc.Checksum(img[:], m.backend)
	if crc == stored {
		return false, nil
	}
	flips, ok := ecc.CorrectCodeword(img[:], stored, crc)
	if !ok {
		return false, m.fault(g, "crc32c mismatch beyond correction depth")
	}
	for _, f := range flips {
		if f.InCRC {
			// Checksum-slot flip: the data records in img are already
			// right, only the stored redundancy needs repair.
			if commit {
				m.rowIdx[base+f.Bit/4] ^= 1 << uint(28+f.Bit%4)
			}
			continue
		}
		elem := f.Bit / 128
		bit := f.Bit % 128
		k := base + elem
		switch {
		case bit < 64:
			if commit {
				m.vals[k] = math.Float64frombits(math.Float64bits(m.vals[k]) ^ 1<<uint(bit))
			}
		case bit < 96:
			if bit-64 >= 28 {
				return false, m.fault(g, "crc flip located in reserved nibble")
			}
			if commit {
				m.rowIdx[k] ^= 1 << uint(bit-64)
			}
		default:
			if commit {
				m.colIdx[k] ^= 1 << uint(bit-96)
			}
		}
		img[f.Bit/8] ^= 1 << uint(f.Bit%8)
	}
	m.counters.AddCorrected(1)
	return true, nil
}

// CheckAll verifies and repairs every codeword, returning the number of
// corrections and the first uncorrectable error.
func (m *Matrix) CheckAll() (corrected int, err error) {
	if m.counters == nil {
		// Attach a scratch accumulator so corrections are counted even
		// for untracked matrices.
		m.counters = &core.Counters{}
		defer func() { m.counters = nil }()
	}
	before := m.counters.Corrected()
	record := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	switch m.scheme {
	case core.None:
	case core.SED:
		m.counters.AddChecks(uint64(len(m.vals)))
		for k := range m.vals {
			record(m.checkSED(k))
		}
	case core.SECDED64:
		m.counters.AddChecks(uint64(len(m.vals)))
		for k := range m.vals {
			_, e := m.check64(k, true)
			record(e)
		}
	case core.SECDED128:
		m.counters.AddChecks(uint64(len(m.vals) / 2))
		for t := 0; 2*t < len(m.vals); t++ {
			_, e := m.checkPair(t, true)
			record(e)
		}
	case core.CRC32C:
		m.counters.AddChecks(uint64(len(m.vals) / crcGroup))
		var img [16 * crcGroup]byte
		for g := 0; g*crcGroup < len(m.vals); g++ {
			_, e := m.checkGroupCRC(g, true, &img)
			record(e)
		}
	}
	return int(m.counters.Corrected() - before), err
}

// groupSize returns the number of entries per element codeword, the
// alignment parallel entry ranges must respect so no two workers ever
// touch the same codeword.
func (m *Matrix) groupSize() int {
	switch m.scheme {
	case core.SECDED128:
		return 2
	case core.CRC32C:
		return crcGroup
	default:
		return 1
	}
}

// SpMV computes dst = m * x serially; a convenience wrapper around Apply.
func (m *Matrix) SpMV(dst *core.Vector, x *core.Vector) error {
	return m.Apply(dst, x, 1)
}

// Apply computes dst = m * x with full integrity checking: every element
// codeword is verified before use, indices are range-checked, and the
// result is committed to the protected output block-wise through a dense
// accumulator (COO scatter cannot stream output codewords directly; this
// is the buffered-write strategy of paper section VI-C applied to a
// scatter pattern). Workers above 1 split the entry stream into
// codeword-aligned ranges, scatter into per-worker accumulators, and
// reduce block-wise — each codeword and each output block has exactly one
// owner, so the parallel path is race-free and bit-identical to serial.
func (m *Matrix) Apply(dst *core.Vector, x *core.Vector, workers int) error {
	if !m.mode.Verifies() {
		return m.ApplyUnverified(dst, x, workers)
	}
	return m.apply(dst, x, workers, false)
}

// ApplyUnverified computes dst = m * x through the no-decode fast path
// regardless of the stored read mode: the source vector and every
// element triplet stream as masked payload with only index range checks
// applied — no codeword verification, no corrections, no commit, and
// the check counters stay untouched — so it can run concurrently with
// verified readers of the same shared storage. It is the inner-solve
// read path of selective reliability.
func (m *Matrix) ApplyUnverified(dst *core.Vector, x *core.Vector, workers int) error {
	return m.apply(dst, x, workers, true)
}

func (m *Matrix) apply(dst *core.Vector, x *core.Vector, workers int, unverified bool) error {
	if dst.Len() != m.rows || x.Len() != m.cols {
		return fmt.Errorf("coo: SpMV dimension mismatch: dst %d, m %dx%d, x %d",
			dst.Len(), m.rows, m.cols, x.Len())
	}
	xbuf := make([]float64, m.cols)
	if unverified {
		if err := x.CopyToUnverified(xbuf); err != nil {
			return err
		}
	} else if err := x.CopyTo(xbuf); err != nil {
		return err
	}
	scatter := m.scatterRange
	if unverified {
		// No verify pass at all: the clean-stream scatter covers the whole
		// range (index mask and bounds checks still apply).
		scatter = m.scatterClean
	}
	ranges := m.entryRanges(workers)
	if len(ranges) <= 1 {
		acc := make([]float64, m.rows)
		if err := scatter(acc, xbuf, 0, len(m.vals)); err != nil {
			return err
		}
		return commitAcc(dst, acc, m.rows)
	}
	accs := make([][]float64, len(ranges))
	byLo := make(map[int][]float64, len(ranges))
	for i, r := range ranges {
		accs[i] = make([]float64, m.rows)
		byLo[r[0]] = accs[i]
	}
	err := par.Run(ranges, func(lo, hi int) error {
		return scatter(byLo[lo], xbuf, lo, hi)
	})
	if err != nil {
		return err
	}
	// Reduce the per-worker accumulators block-wise. Ranges are row-aligned,
	// so every row was summed left-to-right inside exactly one accumulator
	// and the result is bit-identical for any worker count.
	return par.ForEach((m.rows+3)/4, workers, 1, func(blo, bhi int) error {
		var out [4]float64
		for blk := blo; blk < bhi; blk++ {
			for i := 0; i < 4; i++ {
				out[i] = 0
				if idx := blk*4 + i; idx < m.rows {
					for _, acc := range accs {
						out[i] += acc[idx]
					}
				}
			}
			dst.WriteBlock(blk, &out)
		}
		return nil
	})
}

// entryRanges splits the entry stream into at most workers contiguous
// ranges whose interior boundaries respect both codeword-group alignment
// (no two workers share a codeword, so corrections can be committed) and
// row boundaries (each row is summed by one worker, so parallel results
// are bit-identical to serial).
func (m *Matrix) entryRanges(workers int) [][2]int {
	g := m.groupSize()
	raw := par.Ranges(len(m.vals), workers, g)
	if len(raw) <= 1 {
		return raw
	}
	mask := m.idxMask()
	var out [][2]int
	lo := 0
	for _, r := range raw[:len(raw)-1] {
		hi := r[1]
		// Advance the boundary in group steps until it also lands on a
		// row change (group padding at the stream tail has row index 0,
		// which differs from the last real rows, terminating the walk).
		for hi < len(m.vals) && m.rowIdx[hi-1]&mask == m.rowIdx[hi]&mask {
			hi += g
			if hi > len(m.vals) {
				hi = len(m.vals)
			}
		}
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
		lo = hi
		if lo >= len(m.vals) {
			return out
		}
	}
	return append(out, [2]int{lo, len(m.vals)})
}

// verifyChunk bounds the entry span one batch verify covers before its
// chunk is scattered, keeping the verified entries warm in cache for the
// scatter pass. It is a multiple of every codeword group size.
const verifyChunk = 64

// scatterRange verifies and scatters entries [lo,hi) into acc following
// the verify-then-stream protocol: each chunk's codewords are
// batch-verified in a tight per-scheme loop, then the chunk streams
// unguarded (index mask and range checks only) with no decode
// interleaved with the multiply. Only a chunk whose correction could not
// be committed — the matrix is shared across Apply callers (see
// SetShared) and a live fault was hit — falls back to a corrective local
// decode, so the slow path is paid per faulty chunk, not per sweep.
// Ranges are codeword-aligned, so workers never share a codeword.
func (m *Matrix) scatterRange(acc, xbuf []float64, lo, hi int) error {
	commit := m.mode.Commits()
	var checks uint64
	defer func() { m.counters.AddChecks(checks) }()
	switch m.scheme {
	case core.None:
		for k := lo; k < hi; k++ {
			acc[m.rowIdx[k]] += m.vals[k] * xbuf[m.colIdx[k]]
		}
	case core.SED:
		// Detect-only: nothing to fall back to, verify then stream.
		checks += uint64(hi - lo)
		for k := lo; k < hi; k++ {
			if err := m.checkSED(k); err != nil {
				return err
			}
		}
		return m.scatterClean(acc, xbuf, lo, hi)
	case core.SECDED64:
		for base := lo; base < hi; base += verifyChunk {
			end := base + verifyChunk
			if end > hi {
				end = hi
			}
			checks += uint64(end - base)
			dirty := false
			for k := base; k < end; k++ {
				corrected, err := m.check64(k, commit)
				if err != nil {
					return err
				}
				if corrected && !commit {
					dirty = true
				}
			}
			var err error
			if dirty {
				err = m.scatter64Local(acc, xbuf, base, end)
			} else {
				err = m.scatterClean(acc, xbuf, base, end)
			}
			if err != nil {
				return err
			}
		}
	case core.SECDED128:
		for base := lo; base < hi; base += verifyChunk {
			end := base + verifyChunk
			if end > hi {
				end = hi
			}
			checks += uint64((end - base + 1) / 2)
			dirty := false
			for t := base / 2; 2*t < end; t++ {
				corrected, err := m.checkPair(t, commit)
				if err != nil {
					return err
				}
				if corrected && !commit {
					dirty = true
				}
			}
			var err error
			if dirty {
				err = m.scatterPairLocal(acc, xbuf, base, end)
			} else {
				err = m.scatterClean(acc, xbuf, base, end)
			}
			if err != nil {
				return err
			}
		}
	case core.CRC32C:
		var img [16 * crcGroup]byte
		for base := lo; base < hi; base += crcGroup {
			checks++
			corrected, err := m.checkGroupCRC(base/crcGroup, commit, &img)
			if err != nil {
				return err
			}
			if corrected && !commit {
				err = m.scatterGroupImg(acc, xbuf, base, &img)
			} else {
				err = m.scatterClean(acc, xbuf, base, base+crcGroup)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// scatterClean scatters entries [lo,hi) straight from storage: the fast
// second half of verify-then-stream, applying only the index mask and
// the range checks.
func (m *Matrix) scatterClean(acc, xbuf []float64, lo, hi int) error {
	mask := m.idxMask()
	for k := lo; k < hi; k++ {
		row := m.rowIdx[k] & mask
		col := m.colIdx[k] & mask
		if row >= uint32(m.rows) {
			m.counters.AddBounds(1)
			return &core.BoundsError{Structure: core.StructElements, Index: k,
				Value: row, Limit: uint32(m.rows)}
		}
		if col >= uint32(m.cols) {
			m.counters.AddBounds(1)
			return &core.BoundsError{Structure: core.StructElements, Index: k,
				Value: col, Limit: uint32(m.cols)}
		}
		acc[row] += m.vals[k] * xbuf[col]
	}
	return nil
}

// scatter64Local is the corrective fallback for a dirty SECDED64 chunk:
// every element decodes through a local codeword with the correction
// applied there, never touching shared storage. The verify pass already
// accounted the checks and corrections.
func (m *Matrix) scatter64Local(acc, xbuf []float64, lo, hi int) error {
	for k := lo; k < hi; k++ {
		cw := ecc.Word4{
			math.Float64bits(m.vals[k]),
			word1(m.rowIdx[k], m.colIdx[k]),
		}
		if res, _ := codecElem64.Check(&cw); res == ecc.Detected {
			return m.fault(k, "secded64 double-bit error")
		}
		if err := m.scatterElem(acc, xbuf, k,
			uint32(cw[1])&eccIdxMask, uint32(cw[1]>>32)&eccIdxMask,
			math.Float64frombits(cw[0])); err != nil {
			return err
		}
	}
	return nil
}

// scatterPairLocal is scatter64Local for a dirty SECDED128 chunk; lo and
// hi are pair-aligned (chunks and ranges are codeword-aligned).
func (m *Matrix) scatterPairLocal(acc, xbuf []float64, lo, hi int) error {
	for t := lo / 2; 2*t < hi; t++ {
		k := 2 * t
		cw := ecc.Word4{
			math.Float64bits(m.vals[k]),
			word1(m.rowIdx[k], m.colIdx[k]),
			math.Float64bits(m.vals[k+1]),
			word1(m.rowIdx[k+1], m.colIdx[k+1]),
		}
		if res, _ := codecElem128.Check(&cw); res == ecc.Detected {
			return m.fault(t, "secded128 double-bit error")
		}
		for j := 0; j < 2; j++ {
			if err := m.scatterElem(acc, xbuf, k+j,
				uint32(cw[1+2*j])&eccIdxMask, uint32(cw[1+2*j]>>32)&eccIdxMask,
				math.Float64frombits(cw[2*j])); err != nil {
				return err
			}
		}
	}
	return nil
}

// scatterGroupImg is the corrective fallback for a dirty CRC32C group:
// the verify left the corrected group image in img, so the scatter
// streams from it instead of the stale storage.
func (m *Matrix) scatterGroupImg(acc, xbuf []float64, base int, img *[16 * crcGroup]byte) error {
	for i := 0; i < crcGroup; i++ {
		if err := m.scatterElem(acc, xbuf, base+i,
			binary.LittleEndian.Uint32(img[16*i+8:])&eccIdxMask,
			binary.LittleEndian.Uint32(img[16*i+12:])&eccIdxMask,
			math.Float64frombits(binary.LittleEndian.Uint64(img[16*i:]))); err != nil {
			return err
		}
	}
	return nil
}

// scatterElem range-checks and applies one decoded element.
func (m *Matrix) scatterElem(acc, xbuf []float64, k int, row, col uint32, val float64) error {
	if row >= uint32(m.rows) {
		m.counters.AddBounds(1)
		return &core.BoundsError{Structure: core.StructElements, Index: k,
			Value: row, Limit: uint32(m.rows)}
	}
	if col >= uint32(m.cols) {
		m.counters.AddBounds(1)
		return &core.BoundsError{Structure: core.StructElements, Index: k,
			Value: col, Limit: uint32(m.cols)}
	}
	acc[row] += val * xbuf[col]
	return nil
}

// commitAcc writes a dense accumulator into the protected output vector
// one codeword block at a time.
func commitAcc(dst *core.Vector, acc []float64, n int) error {
	var out [4]float64
	for blk := 0; blk*4 < n; blk++ {
		for i := 0; i < 4; i++ {
			if idx := blk*4 + i; idx < n {
				out[i] = acc[idx]
			} else {
				out[i] = 0
			}
		}
		dst.WriteBlock(blk, &out)
	}
	return nil
}

// Diagonal extracts the main diagonal into dst (length >= Rows), fully
// verifying every codeword on the way. Used to build Jacobi
// preconditioners.
func (m *Matrix) Diagonal(dst []float64) error {
	if len(dst) < m.rows {
		return fmt.Errorf("coo: Diagonal destination too short")
	}
	plain, err := m.ToCSR()
	if err != nil {
		return err
	}
	plain.Diagonal(dst)
	return nil
}

// Scrub verifies and repairs every codeword, satisfying
// core.ProtectedMatrix; it is CheckAll under the interface's name.
func (m *Matrix) Scrub() (corrected int, err error) { return m.CheckAll() }

// ElemCodewordSpan reports the positions of one randomly chosen element
// codeword, satisfying core.ElemSpanner: single triplets under
// SED/SECDED64, consecutive pairs under SECDED128, 8-entry groups under
// CRC32C.
func (m *Matrix) ElemCodewordSpan(pick func(n int) int) (base, span, stride int) {
	switch m.scheme {
	case core.SECDED128:
		return pick(len(m.vals)/2) * 2, 2, 1
	case core.CRC32C:
		return pick(len(m.vals)/crcGroup) * crcGroup, crcGroup, 1
	}
	return pick(len(m.vals)), 1, 1
}

// CounterSnapshot returns a copy of the attached counters.
func (m *Matrix) CounterSnapshot() core.CounterSnapshot { return m.counters.Snapshot() }

// ToCSR decodes and verifies the matrix back into CSR form.
func (m *Matrix) ToCSR() (*csr.Matrix, error) {
	if _, err := m.CheckAll(); err != nil {
		return nil, err
	}
	mask := m.idxMask()
	entries := make([]csr.Entry, 0, m.nnz)
	for k := 0; k < len(m.vals); k++ {
		if k >= m.nnz && m.vals[k] == 0 {
			continue // group padding
		}
		entries = append(entries, csr.Entry{
			Row: int(m.rowIdx[k] & mask),
			Col: int(m.colIdx[k] & mask),
			Val: m.vals[k],
		})
	}
	return csr.New(m.rows, m.cols, entries)
}
