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

// Matrix is a sparse matrix in COO format with embedded ECC; its NNZ
// counts logical entries, excluding group padding.
type Matrix struct {
	core.Shell
	backend ecc.Backend

	rowIdx []uint32
	colIdx []uint32
	vals   []float64
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
	m := &Matrix{backend: opt.Backend}
	m.Init(m, src.Rows(), src.Cols32(), src.NNZ(), s, s != core.None)
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

// RawRows exposes the stored row indices for fault injection.
func (m *Matrix) RawRows() []uint32 { return m.rowIdx }

// RawCols exposes the stored column indices for fault injection.
func (m *Matrix) RawCols() []uint32 { return m.colIdx }

// RawVals exposes the stored values for fault injection.
func (m *Matrix) RawVals() []float64 { return m.vals }

// idxMask returns the AND-mask isolating the data bits of an index.
func (m *Matrix) idxMask() uint32 {
	switch m.Scheme() {
	case core.None:
		return 0xFFFF_FFFF
	case core.SED:
		return sedIdxMask
	default:
		return eccIdxMask
	}
}

func (m *Matrix) encodeAll() {
	switch m.Scheme() {
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

// word1 packs the two indices of an element into its codeword's index word.
func word1(row, col uint32) uint64 {
	return uint64(row) | uint64(col)<<32
}

// elem loads element k by value as the two words of its 128-bit
// codeword, [val | row | col]: what the clean-path kernels take.
func (m *Matrix) elem(k int) (val, idx uint64) {
	return math.Float64bits(m.vals[k]), word1(m.rowIdx[k], m.colIdx[k])
}

// word64 loads element k as a SECDED64 codeword for the cold path.
func (m *Matrix) word64(k int) ecc.Word4 {
	x, y := m.elem(k)
	return ecc.Word4{x, y}
}

// wordPair loads elements 2t and 2t+1 as a SECDED128 codeword for the
// cold path.
func (m *Matrix) wordPair(t int) ecc.Word4 {
	x, y := m.elem(2 * t)
	z, v := m.elem(2*t + 1)
	return ecc.Word4{x, y, z, v}
}

func (m *Matrix) encodeSED(k int) {
	r := m.rowIdx[k] & sedIdxMask
	p := ecc.Parity64(math.Float64bits(m.vals[k]) ^ word1(r, m.colIdx[k]))
	m.rowIdx[k] = r | uint32(p)<<31
}

func (m *Matrix) encode64(k int) {
	m.rowIdx[k] &= eccIdxMask
	m.colIdx[k] &= eccIdxMask
	_, y := codecElem64.Encode128(m.elem(k))
	m.rowIdx[k], m.colIdx[k] = uint32(y), uint32(y>>32)
}

func (m *Matrix) encodePair(t int) {
	for k := 2 * t; k < 2*t+2; k++ {
		m.rowIdx[k] &= eccIdxMask
		m.colIdx[k] &= eccIdxMask
	}
	x, y := m.elem(2 * t)
	z, v := m.elem(2*t + 1)
	_, y, _, v = codecElem128.Encode256(x, y, z, v)
	m.rowIdx[2*t], m.colIdx[2*t] = uint32(y), uint32(y>>32)
	m.rowIdx[2*t+1], m.colIdx[2*t+1] = uint32(v), uint32(v>>32)
}

// storePair writes a SECDED128 codeword back over elements 2t and 2t+1.
func (m *Matrix) storePair(t int, cw *ecc.Word4) {
	for j := 0; j < 2; j++ {
		m.vals[2*t+j] = math.Float64frombits(cw[2*j])
		m.rowIdx[2*t+j] = uint32(cw[2*j+1])
		m.colIdx[2*t+j] = uint32(cw[2*j+1] >> 32)
	}
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

// fault counts (into c, nil counts nothing) and builds the
// uncorrectable-error value for codeword idx.
func (m *Matrix) fault(c *core.Counters, idx int, detail string) error {
	c.AddDetected(1)
	return &core.FaultError{
		Structure: core.StructElements,
		Scheme:    m.Scheme(),
		Index:     idx,
		Detail:    detail,
	}
}

// checkSED verifies element k (detection only).
func (m *Matrix) checkSED(k int, c *core.Counters) error {
	if ecc.Parity64(math.Float64bits(m.vals[k])^word1(m.rowIdx[k], m.colIdx[k])) != 0 {
		return m.fault(c, k, "parity mismatch")
	}
	return nil
}

// check64 verifies element k, repairing single flips when commit is true
// and counting into c. The first return reports whether a correction was
// found — storage is stale when it was and commit was false.
func (m *Matrix) check64(k int, commit bool, c *core.Counters) (bool, error) {
	// The codeword goes to the kernel by value; only a non-zero
	// accumulator pays for the Word4 and the resolve.
	if codecElem64.Acc128(m.elem(k)) == 0 {
		return false, nil
	}
	cw := m.word64(k)
	switch res, _ := codecElem64.Check(&cw); res {
	case ecc.Corrected:
		if commit {
			m.vals[k] = math.Float64frombits(cw[0])
			m.rowIdx[k] = uint32(cw[1])
			m.colIdx[k] = uint32(cw[1] >> 32)
		}
		c.AddCorrected(1)
		return true, nil
	case ecc.Detected:
		return false, m.fault(c, k, "secded64 double-bit error")
	}
	return false, nil
}

// checkPair verifies element pair t with check64's contract.
func (m *Matrix) checkPair(t int, commit bool, c *core.Counters) (bool, error) {
	x, y := m.elem(2 * t)
	z, v := m.elem(2*t + 1)
	if codecElem128.Acc256(x, y, z, v) == 0 {
		return false, nil
	}
	cw := m.wordPair(t)
	switch res, _ := codecElem128.Check(&cw); res {
	case ecc.Corrected:
		if commit {
			m.storePair(t, &cw)
		}
		c.AddCorrected(1)
		return true, nil
	case ecc.Detected:
		return false, m.fault(c, t, "secded128 double-bit error")
	}
	return false, nil
}

// checkGroupCRC verifies 8-element group g with check64's contract. img
// receives the group's codeword image (16 bytes per element: value, row,
// column; the rows' checksum nibbles cleared on a clean group, the
// corrected checksum in them after a repair), so a caller that cannot
// commit a correction to shared storage can still stream the repaired
// group by masking the indices.
func (m *Matrix) checkGroupCRC(g int, commit bool, c *core.Counters, img *[16 * crcGroup]byte) (bool, error) {
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
	if !ecc.RepairCodeword(img[:], groupSlot, stored, crc) {
		return false, m.fault(c, g, "crc32c mismatch beyond correction depth")
	}
	if commit {
		for i := 0; i < crcGroup; i++ {
			k := base + i
			m.vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(img[16*i:]))
			m.rowIdx[k] = binary.LittleEndian.Uint32(img[16*i+8:])
			m.colIdx[k] = binary.LittleEndian.Uint32(img[16*i+12:])
		}
	}
	c.AddCorrected(1)
	return true, nil
}

// groupSlot places bit k of a group's checksum in its codeword image
// (DESIGN.md section 31): bit 28+k%4 of element k/4's row index.
func groupSlot(k int) int { return 128*(k/4) + 92 + k%4 }

// checkRange verifies every codeword covering entries [lo,hi) (a
// codeword-aligned range) in one tight per-scheme pass, repairing
// correctable errors when commit is true, counting corrections and
// detections into c and continuing past uncorrectable errors so the full
// damage is counted — the batch-verify half of the verify-then-stream
// protocol and the body of CheckAll. It returns whether the range is
// dirty (a correction was found but not committed, so storage still
// holds a raw fault and must not be streamed), the number of codeword
// checks performed, and the first error. img is the CRC32C group scratch
// (unused by other schemes).
func (m *Matrix) checkRange(lo, hi int, commit bool, c *core.Counters, img *[16 * crcGroup]byte) (dirty bool, checks uint64, err error) {
	record := func(corrected bool, e error) {
		if e != nil && err == nil {
			err = e
		}
		if corrected && !commit {
			dirty = true
		}
	}
	switch m.Scheme() {
	case core.SED:
		for k := lo; k < hi; k++ {
			checks++
			record(false, m.checkSED(k, c))
		}
	case core.SECDED64:
		for k := lo; k < hi; k++ {
			checks++
			record(m.check64(k, commit, c))
		}
	case core.SECDED128:
		for t := lo / 2; 2*t < hi; t++ {
			checks++
			record(m.checkPair(t, commit, c))
		}
	case core.CRC32C:
		for g := lo / crcGroup; g*crcGroup < hi; g++ {
			checks++
			record(m.checkGroupCRC(g, commit, c, img))
		}
	}
	return dirty, checks, err
}

// VerifyAll verifies and repairs every codeword, satisfying
// core.Layout: the body of Shell.CheckAll.
func (m *Matrix) VerifyAll(acc *core.Counters) (checks uint64, err error) {
	var img [16 * crcGroup]byte
	_, checks, err = m.checkRange(0, len(m.vals), true, acc, &img)
	return checks, err
}

// groupSize returns the number of entries per element codeword, the
// alignment parallel entry ranges must respect so no two workers ever
// touch the same codeword.
func (m *Matrix) groupSize() int {
	switch m.Scheme() {
	case core.SECDED128:
		return 2
	case core.CRC32C:
		return crcGroup
	default:
		return 1
	}
}

// Product computes dsts[j] = m xs[j] for every j in a single pass over
// the entry stream, satisfying core.Layout. Each source vector is
// decoded once into a dense buffer (core.DecodeSources, the prologue all
// formats share), each chunk of element codewords is verified once per
// full sweep whatever the width, and its entries scatter into k dense
// accumulators; per-column results are bit-identical to k independent
// width-1 calls because entries scatter in the same order into each
// column's own accumulator. The result is committed to the protected
// output block-wise through the accumulators (COO scatter cannot stream
// output codewords directly; this is the buffered-write strategy of
// paper section VI-C applied to a scatter pattern). Dot requests pending
// on dsts (core.DotRequest) are answered from the sweep.
//
// Workers above 1 split the entry stream into codeword-aligned ranges,
// scatter into per-worker accumulators, and reduce block-wise — each
// codeword and each output block has exactly one owner, so the parallel
// path is race-free and bit-identical to serial.
func (m *Matrix) Product(dsts, xs []*core.Vector, workers int, sw core.Sweep) error {
	rows := m.Rows()
	ranges := m.entryRanges(workers)
	accs := make([][][]float64, len(ranges))
	for i := range accs {
		accs[i] = newAccs(len(xs), rows)
	}
	return core.DecodeSources(dsts, xs, !sw.Sources, func(xbufs [][]float64, ep *core.DotEpilogue) error {
		err := par.Run(ranges, func(lo, hi int) error {
			i := 0
			for ranges[i][0] != lo {
				i++
			}
			return m.scatterK(accs[i], xbufs, lo, hi, sw)
		})
		if err != nil {
			return err
		}
		// Reduce the per-range accumulators block-wise, per column. Ranges
		// are row-aligned, so every row was summed left-to-right inside
		// exactly one accumulator and the result is bit-identical for any
		// worker count (a single range reduces to 0 + acc, which is acc:
		// an accumulator that starts at +0 never holds -0).
		return par.ForEach(dsts[0].Blocks(), workers, 1, func(blo, bhi int) error {
			for j, dst := range dsts {
				for blk := blo; blk < bhi; blk++ {
					var out [core.BlockLen]float64
					lo := blk * core.BlockLen
					for _, acc := range accs {
						for i, v := range acc[j][lo:min(lo+core.BlockLen, rows)] {
							out[i] += v
						}
					}
					ep.WriteBlock(j, dst, blk, &out)
				}
			}
			return nil
		})
	})
}

// newAccs returns k zeroed dense buffers of length n.
func newAccs(k, n int) [][]float64 {
	accs := make([][]float64, k)
	for j := range accs {
		accs[j] = make([]float64, n)
	}
	return accs
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

// scatterK verifies and scatters entries [lo,hi) into the k accumulators
// following the verify-then-stream protocol: each chunk's codewords are
// batch-verified once in a tight per-scheme loop (checkRange), then the
// chunk streams straight from storage into every column with only the
// index mask and range checks applied — no decode interleaved with the
// multiply. Only a chunk whose correction could not be committed — the
// matrix is shared across Apply callers (ModeShared) and a live fault
// was hit — is staged and streamed from the stage, so the slow path is
// paid per faulty chunk, not per sweep. Ranges are codeword-aligned, so
// workers never share a codeword. Unless sw is a full sweep no chunk is
// verified or counted; every row and column index is range-checked under
// every scheme, none included.
func (m *Matrix) scatterK(accs, xbufs [][]float64, lo, hi int, sw core.Sweep) error {
	step := verifyChunk
	var img *[16 * crcGroup]byte
	if m.Scheme() == core.CRC32C && sw.Full {
		// One group per chunk; the image escapes into hash/crc32, so it is
		// allocated once per range.
		step, img = crcGroup, new([16 * crcGroup]byte)
	}
	var checks uint64
	defer func() { m.Counters().AddChecks(checks) }()
	for base := lo; base < hi; base += step {
		end := base + step
		if end > hi {
			end = hi
		}
		if sw.Full {
			dirty, n, err := m.checkRange(base, end, sw.Commit, m.Counters(), img)
			checks += n
			if err != nil {
				return err
			}
			if dirty {
				if err := m.scatterStaged(accs, xbufs, base, end, img); err != nil {
					return err
				}
				continue
			}
		}
		if err := m.scatterClean(accs, xbufs, base, end); err != nil {
			return err
		}
	}
	return nil
}

// scatterClean streams entries [lo,hi) straight from storage into every
// column: the fast second half of verify-then-stream, applying only the
// index mask and the range checks, once per entry whatever the width.
func (m *Matrix) scatterClean(accs, xbufs [][]float64, lo, hi int) error {
	mask, rows, cols := m.idxMask(), uint32(m.Rows()), uint32(m.Cols())
	if len(accs) == 1 {
		acc, xbuf := accs[0], xbufs[0]
		for k := lo; k < hi; k++ {
			row, col := m.rowIdx[k]&mask, m.colIdx[k]&mask
			if row >= rows || col >= cols {
				return m.boundsErr(k, row, col)
			}
			acc[row] += m.vals[k] * xbuf[col]
		}
		return nil
	}
	for k := lo; k < hi; k++ {
		row, col := m.rowIdx[k]&mask, m.colIdx[k]&mask
		if row >= rows || col >= cols {
			return m.boundsErr(k, row, col)
		}
		v := m.vals[k]
		for j := range accs {
			accs[j][row] += v * xbufs[j][col]
		}
	}
	return nil
}

// scatterStaged is the corrective fallback for a dirty chunk [lo,hi):
// every codeword of the chunk is decoded into a local stage with its
// correction applied there — nothing written to shared storage, nothing
// counted, since the verify pass that flagged the chunk already
// accounted the checks and the correction — and the stage streams into
// every column. img is the CRC32C group scratch.
func (m *Matrix) scatterStaged(accs, xbufs [][]float64, lo, hi int, img *[16 * crcGroup]byte) error {
	var rows, cols [verifyChunk]uint32
	var vals [verifyChunk]float64
	switch m.Scheme() {
	case core.SECDED64:
		for k := lo; k < hi; k++ {
			cw := m.word64(k)
			if res, _ := codecElem64.Check(&cw); res == ecc.Detected {
				return m.fault(nil, k, "secded64 double-bit error")
			}
			rows[k-lo], cols[k-lo], vals[k-lo] = uint32(cw[1]), uint32(cw[1]>>32), math.Float64frombits(cw[0])
		}
	case core.SECDED128:
		for t := lo / 2; 2*t < hi; t++ {
			cw := m.wordPair(t)
			if res, _ := codecElem128.Check(&cw); res == ecc.Detected {
				return m.fault(nil, t, "secded128 double-bit error")
			}
			for j := 0; j < 2; j++ {
				i := 2*t + j - lo
				rows[i], cols[i], vals[i] = uint32(cw[2*j+1]), uint32(cw[2*j+1]>>32), math.Float64frombits(cw[2*j])
			}
		}
	case core.CRC32C:
		for g := lo / crcGroup; g*crcGroup < hi; g++ {
			if _, err := m.checkGroupCRC(g, false, nil, img); err != nil {
				return err
			}
			for j := 0; j < crcGroup; j++ {
				i := g*crcGroup + j - lo
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(img[16*j:]))
				rows[i] = binary.LittleEndian.Uint32(img[16*j+8:])
				cols[i] = binary.LittleEndian.Uint32(img[16*j+12:])
			}
		}
	}
	for i := 0; i < hi-lo; i++ {
		row, col := rows[i]&eccIdxMask, cols[i]&eccIdxMask
		if row >= uint32(m.Rows()) || col >= uint32(m.Cols()) {
			return m.boundsErr(lo+i, row, col)
		}
		for j, acc := range accs {
			acc[row] += vals[i] * xbufs[j][col]
		}
	}
	return nil
}

// boundsErr counts and builds the range-check error for element k, whose
// masked row or column index is out of range (the row is reported first).
func (m *Matrix) boundsErr(k int, row, col uint32) error {
	m.Counters().AddBounds(1)
	if rows := uint32(m.Rows()); row >= rows {
		return &core.BoundsError{Structure: core.StructElements, Index: k, Value: row, Limit: rows}
	}
	return &core.BoundsError{Structure: core.StructElements, Index: k, Value: col, Limit: uint32(m.Cols())}
}

// ElemCodewordSpan reports the positions of one randomly chosen element
// codeword, satisfying core.ElemSpanner: single triplets under
// SED/SECDED64, consecutive pairs under SECDED128, 8-entry groups under
// CRC32C.
func (m *Matrix) ElemCodewordSpan(pick func(n int) int) (base, span int) {
	switch m.Scheme() {
	case core.SECDED128:
		return pick(len(m.vals)/2) * 2, 2
	case core.CRC32C:
		return pick(len(m.vals)/crcGroup) * crcGroup, crcGroup
	}
	return pick(len(m.vals)), 1
}

// ToCSR decodes and verifies the matrix back into CSR form, satisfying
// core.Layout.
func (m *Matrix) ToCSR() (*csr.Matrix, error) {
	if _, err := m.CheckAll(); err != nil {
		return nil, err
	}
	mask := m.idxMask()
	entries := make([]csr.Entry, 0, m.NNZ())
	for k := 0; k < len(m.vals); k++ {
		if k >= m.NNZ() && m.vals[k] == 0 {
			continue // group padding
		}
		entries = append(entries, csr.Entry{
			Row: int(m.rowIdx[k] & mask),
			Col: int(m.colIdx[k] & mask),
			Val: m.vals[k],
		})
	}
	return csr.New(m.Rows(), m.Cols(), entries)
}
