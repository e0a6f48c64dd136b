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
// The codec is one unexported view, triplets, COO's twin of
// core.ColElems (DESIGN.md section 4): each scheme's repair is written
// once (check64, checkPair, checkGroupCRC) and checkRange walks the
// codewords of a range with it — the committing check of CheckAll and
// of a product's chunk, run with nothing to commit or count as the
// chunk's clean test, and the repair of a shared-mode stage, a copy of a
// chunk whose correction could not be committed.
//
// A product's chunks are groups of core's verify-then-stream sweep
// (core.SweepGroups, DESIGN.md section 42). COO SpMV is a scatter
// (dst[row] += val*x[col]), so unlike the CSR kernel it accumulates
// into a dense buffer and commits the protected output vector
// block-wise afterwards — the buffered-write strategy of paper section
// VI-C applied to a scatter pattern. Storage and a stage stream through
// the same scatter loops.
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

// idxMask returns the AND-mask isolating the data bits of an index under
// scheme s; it equals the largest index the scheme can represent.
func idxMask(s core.Scheme) uint32 {
	switch s {
	case core.None:
		return 0xFFFF_FFFF
	case core.SED:
		return sedIdxMask
	default:
		return eccIdxMask
	}
}

// groupSize returns the number of entries per element codeword under
// scheme s: the unit storage is padded to, and the alignment parallel
// entry ranges respect so no two workers ever touch the same codeword.
func groupSize(s core.Scheme) int {
	switch s {
	case core.SECDED128:
		return 2
	case core.CRC32C:
		return crcGroup
	default:
		return 1
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
	if lim := int(idxMask(s)); src.Rows() > lim || src.Cols32() > lim {
		return nil, fmt.Errorf("coo: %dx%d exceeds %s index limit %d",
			src.Rows(), src.Cols32(), s, lim)
	}
	m := &Matrix{backend: opt.Backend}
	m.Init(m, src.Rows(), src.Cols32(), src.NNZ(), s, s != core.None)
	g := groupSize(s)
	pad := (src.NNZ() + g - 1) / g * g
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
	el := m.elems()
	el.encode()
	return m, nil
}

// RawRows exposes the stored row indices for fault injection.
func (m *Matrix) RawRows() []uint32 { return m.rowIdx }

// RawCols exposes the stored column indices for fault injection.
func (m *Matrix) RawCols() []uint32 { return m.colIdx }

// RawVals exposes the stored values for fault injection.
func (m *Matrix) RawVals() []float64 { return m.vals }

// triplets is the triplet codec, COO's twin of core.ColElems (DESIGN.md
// section 4): a view over one matrix's own row, column and value arrays
// — or over a staged copy of some of them — built per call, never
// stored on the matrix. Codewords are addressed by storage position: one
// triplet k under SED and SECDED64, the pair (2t, 2t+1) under SECDED128,
// the 8-triplet group g under CRC32C. Every check takes the commit
// discipline and the counters to record into explicitly (nil counts
// nothing) and builds the FaultError itself.
type triplets struct {
	scheme  core.Scheme
	backend ecc.Backend
	rows    []uint32
	cols    []uint32
	vals    []float64
}

// elems returns the triplet codec over this matrix's own arrays.
func (m *Matrix) elems() triplets {
	return triplets{m.Scheme(), m.backend, m.rowIdx, m.colIdx, m.vals}
}

// encode embeds the redundancy of every codeword, one group of
// groupSize entries at a time.
func (t *triplets) encode() {
	var img [16 * crcGroup]byte
	for k := 0; k < len(t.vals); k += groupSize(t.scheme) {
		switch t.scheme {
		case core.SED:
			t.encodeSED(k)
		case core.SECDED64:
			t.encode64(k)
		case core.SECDED128:
			t.encodePair(k / 2)
		case core.CRC32C:
			t.encodeGroupCRC(k/crcGroup, &img)
		}
	}
}

// word1 packs the two indices of an element into its codeword's index word.
func word1(row, col uint32) uint64 {
	return uint64(row) | uint64(col)<<32
}

// elem loads element k by value as the two words of its 128-bit
// codeword, [val | row | col]: what the clean-path kernels take.
func (t *triplets) elem(k int) (val, idx uint64) {
	return math.Float64bits(t.vals[k]), word1(t.rows[k], t.cols[k])
}

// word64 loads element k as a SECDED64 codeword for the cold path.
func (t *triplets) word64(k int) ecc.Word4 {
	x, y := t.elem(k)
	return ecc.Word4{x, y}
}

// wordPair loads elements 2p and 2p+1 as a SECDED128 codeword for the
// cold path.
func (t *triplets) wordPair(p int) ecc.Word4 {
	x, y := t.elem(2 * p)
	z, v := t.elem(2*p + 1)
	return ecc.Word4{x, y, z, v}
}

func (t *triplets) encodeSED(k int) {
	r := t.rows[k] & sedIdxMask
	p := ecc.Parity64(math.Float64bits(t.vals[k]) ^ word1(r, t.cols[k]))
	t.rows[k] = r | uint32(p)<<31
}

func (t *triplets) encode64(k int) {
	t.rows[k] &= eccIdxMask
	t.cols[k] &= eccIdxMask
	_, y := codecElem64.Encode128(t.elem(k))
	t.rows[k], t.cols[k] = uint32(y), uint32(y>>32)
}

func (t *triplets) encodePair(p int) {
	for k := 2 * p; k < 2*p+2; k++ {
		t.rows[k] &= eccIdxMask
		t.cols[k] &= eccIdxMask
	}
	x, y := t.elem(2 * p)
	z, v := t.elem(2*p + 1)
	_, y, _, v = codecElem128.Encode256(x, y, z, v)
	t.rows[2*p], t.cols[2*p] = uint32(y), uint32(y>>32)
	t.rows[2*p+1], t.cols[2*p+1] = uint32(v), uint32(v>>32)
}

// storePair writes a SECDED128 codeword back over elements 2p and 2p+1.
func (t *triplets) storePair(p int, cw *ecc.Word4) {
	for j := 0; j < 2; j++ {
		t.vals[2*p+j] = math.Float64frombits(cw[2*j])
		t.rows[2*p+j] = uint32(cw[2*j+1])
		t.cols[2*p+j] = uint32(cw[2*j+1] >> 32)
	}
}

// encodeGroupCRC recomputes the checksum of 8-element group g; the CRC is
// stored nibble-wise in the row-index top nibbles. img is the caller's
// scratch for the group image (it escapes into hash/crc32, so a per-call
// local would cost one heap allocation per group).
func (t *triplets) encodeGroupCRC(g int, img *[16 * crcGroup]byte) {
	base := g * crcGroup
	for i := 0; i < crcGroup; i++ {
		k := base + i
		t.rows[k] &= eccIdxMask
		binary.LittleEndian.PutUint64(img[16*i:], math.Float64bits(t.vals[k]))
		binary.LittleEndian.PutUint32(img[16*i+8:], t.rows[k])
		binary.LittleEndian.PutUint32(img[16*i+12:], t.cols[k])
	}
	crcbits := ecc.Checksum(img[:], t.backend)
	for i := 0; i < crcGroup; i++ {
		t.rows[base+i] |= (crcbits >> (4 * uint(i)) & 0xF) << 28
	}
}

// fault counts (into c, nil counts nothing) and builds the
// uncorrectable-error value for codeword idx.
func (t *triplets) fault(c *core.Counters, idx int, detail string) error {
	c.AddDetected(1)
	return &core.FaultError{
		Structure: core.StructElements,
		Scheme:    t.scheme,
		Index:     idx,
		Detail:    detail,
	}
}

// checkSED verifies element k (detection only).
func (t *triplets) checkSED(k int, c *core.Counters) error {
	if ecc.Parity64(math.Float64bits(t.vals[k])^word1(t.rows[k], t.cols[k])) != 0 {
		return t.fault(c, k, "parity mismatch")
	}
	return nil
}

// check64 verifies element k, repairing single flips when commit is true
// and counting into c. The first return reports storage stale: a
// correction was found and commit was false.
func (t *triplets) check64(k int, commit bool, c *core.Counters) (bool, error) {
	// The codeword goes to the kernel by value; only a non-zero
	// accumulator pays for the Word4 and the resolve.
	if codecElem64.Acc128(t.elem(k)) == 0 {
		return false, nil
	}
	cw := t.word64(k)
	switch res, _ := codecElem64.Check(&cw); res {
	case ecc.Corrected:
		if commit {
			t.vals[k] = math.Float64frombits(cw[0])
			t.rows[k] = uint32(cw[1])
			t.cols[k] = uint32(cw[1] >> 32)
		}
		c.AddCorrected(1)
		return !commit, nil
	case ecc.Detected:
		return false, t.fault(c, k, "secded64 double-bit error")
	}
	return false, nil
}

// checkPair verifies element pair p with check64's contract.
func (t *triplets) checkPair(p int, commit bool, c *core.Counters) (bool, error) {
	x, y := t.elem(2 * p)
	z, v := t.elem(2*p + 1)
	if codecElem128.Acc256(x, y, z, v) == 0 {
		return false, nil
	}
	cw := t.wordPair(p)
	switch res, _ := codecElem128.Check(&cw); res {
	case ecc.Corrected:
		if commit {
			t.storePair(p, &cw)
		}
		c.AddCorrected(1)
		return !commit, nil
	case ecc.Detected:
		return false, t.fault(c, p, "secded128 double-bit error")
	}
	return false, nil
}

// checkGroupCRC verifies 8-element group g with check64's contract,
// building the group's codeword image (16 bytes per element: value, row,
// column; the rows' checksum nibbles cleared) in img and repairing it
// with ecc.RepairCodeword when the checksum disagrees.
func (t *triplets) checkGroupCRC(g int, commit bool, c *core.Counters, img *[16 * crcGroup]byte) (bool, error) {
	base := g * crcGroup
	var stored uint32
	for i := 0; i < crcGroup; i++ {
		k := base + i
		binary.LittleEndian.PutUint64(img[16*i:], math.Float64bits(t.vals[k]))
		binary.LittleEndian.PutUint32(img[16*i+8:], t.rows[k]&eccIdxMask)
		binary.LittleEndian.PutUint32(img[16*i+12:], t.cols[k])
		stored |= (t.rows[k] >> 28) << (4 * uint(i))
	}
	crc := ecc.Checksum(img[:], t.backend)
	if crc == stored {
		return false, nil
	}
	if !ecc.RepairCodeword(img[:], groupSlot, stored, crc) {
		return false, t.fault(c, g, "crc32c mismatch beyond correction depth")
	}
	if commit {
		for i := 0; i < crcGroup; i++ {
			k := base + i
			t.vals[k] = math.Float64frombits(binary.LittleEndian.Uint64(img[16*i:]))
			t.rows[k] = binary.LittleEndian.Uint32(img[16*i+8:])
			t.cols[k] = binary.LittleEndian.Uint32(img[16*i+12:])
		}
	}
	c.AddCorrected(1)
	return !commit, nil
}

// groupSlot places bit k of a group's checksum in its codeword image
// (DESIGN.md section 31): bit 28+k%4 of element k/4's row index.
func groupSlot(k int) int { return 128*(k/4) + 92 + k%4 }

// checkRange verifies every codeword covering entries [lo,hi) (a
// codeword-aligned range), one codeword of groupSize entries at a time,
// repairing correctable errors when commit is true, counting corrections
// and detections into c and continuing past uncorrectable errors so the
// full damage is counted: the committing check of a product's chunk and
// of CheckAll, and the repair of a dirty chunk's stage. With commit
// false and c nil it is the chunk's clean test, which writes and counts
// nothing. img is the CRC32C group scratch (unused by other schemes).
func (t *triplets) checkRange(lo, hi int, commit bool, c *core.Counters, img *[16 * crcGroup]byte) (v core.Verdict) {
	if t.scheme == core.None {
		return v
	}
	for k := lo; k < hi; k += groupSize(t.scheme) {
		switch t.scheme {
		case core.SED:
			v.Note(false, t.checkSED(k, c))
		case core.SECDED64:
			v.Note(t.check64(k, commit, c))
		case core.SECDED128:
			v.Note(t.checkPair(k/2, commit, c))
		case core.CRC32C:
			v.Note(t.checkGroupCRC(k/crcGroup, commit, c, img))
		}
	}
	return v
}

// stage is the corrective fallback for a dirty chunk [lo,hi), one whose
// correction could not be committed (a shared matrix hit a live fault):
// a copy of the chunk's codewords repaired by checkRange's committing
// check, so it holds what a committed repair would have left in storage.
// Nothing is written to storage or counted — the verify that found the
// chunk dirty already accounted its checks and corrections — and a fault
// names its storage codeword.
func (t *triplets) stage(lo, hi int, img *[16 * crcGroup]byte) (triplets, error) {
	st := triplets{t.scheme, t.backend, append([]uint32(nil), t.rows[lo:hi]...),
		append([]uint32(nil), t.cols[lo:hi]...), append([]float64(nil), t.vals[lo:hi]...)}
	if err := st.checkRange(0, hi-lo, true, nil, img).Err; err != nil {
		err.(*core.FaultError).Index += lo / groupSize(t.scheme)
		return st, err
	}
	return st, nil
}

// row returns element k's row index, masked, as the committing check of
// its codeword would leave it, writing and counting nothing. An
// uncorrectable codeword keeps its stored index; the verify reports it.
// img is the CRC32C group scratch.
func (t *triplets) row(k int, img *[16 * crcGroup]byte) uint32 {
	g := groupSize(t.scheme)
	lo := k / g * g
	if v := t.checkRange(lo, lo+g, false, nil, img); v.Dirty && v.Err == nil {
		st, _ := t.stage(lo, lo+g, img)
		return st.rows[k-lo] & idxMask(t.scheme)
	}
	return t.rows[k] & idxMask(t.scheme)
}

// VerifyAll verifies and repairs every codeword, satisfying
// core.Layout: the body of Shell.CheckAll.
func (m *Matrix) VerifyAll(acc *core.Counters) (checks uint64, err error) {
	var img [16 * crcGroup]byte
	el := m.elems()
	v := el.checkRange(0, len(m.vals), true, acc, &img)
	return v.Checks, v.Err
}

// Product computes dsts[j] = m xs[j] for every j in a single pass over
// the entry stream, satisfying core.Layout. Each source vector is
// decoded once into a dense buffer (core.DecodeSources, the prologue all
// formats share), each chunk of element codewords is verified once per
// full sweep whatever the width — clean first, repaired only when not —
// and its entries scatter into k dense accumulators (core.SweepGroups,
// DESIGN.md section 42); per-column results are bit-identical to k independent
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
	rows := m.Rows()
	ranges := m.entryRanges(workers)
	accs := make([][][]float64, len(ranges))
	for i := range accs {
		accs[i] = newAccs(len(xbufs), rows)
	}
	err := par.Run(ranges, func(lo, hi int) error {
		i := 0
		for ranges[i][0] != lo {
			i++
		}
		c := m.newSweep(accs[i], xbufs, lo, hi, sw)
		return core.SweepGroups(c, 0, (hi-lo+c.step-1)/c.step, len(xbufs), m.Counters())
	})
	if err != nil {
		return err
	}
	// Reduce the per-range accumulators block-wise, per column. Ranges
	// are row-aligned, so every row was summed left-to-right inside
	// exactly one accumulator and the result is bit-identical for any
	// worker count (a single range reduces to 0 + acc, which is acc: an
	// accumulator that starts at +0 never holds -0).
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
// are bit-identical to serial). The boundaries are placed before any
// codeword is verified, so the row indices they compare are read as
// their codewords' repair would leave them (triplets.row): a struck row
// index must not move a boundary into a row.
func (m *Matrix) entryRanges(workers int) [][2]int {
	g := groupSize(m.Scheme())
	raw := par.Ranges(len(m.vals), workers, g)
	if len(raw) <= 1 {
		return raw
	}
	el := m.elems()
	var img *[16 * crcGroup]byte
	if m.Scheme() == core.CRC32C {
		img = new([16 * crcGroup]byte)
	}
	var out [][2]int
	lo := 0
	for _, r := range raw[:len(raw)-1] {
		hi := r[1]
		// Advance the boundary in group steps until it also lands on a
		// row change (group padding at the stream tail has row index 0,
		// which differs from the last real rows, terminating the walk).
		for hi < len(m.vals) && el.row(hi-1, img) == el.row(hi, img) {
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

// chunkSweep is one goroutine's core.Groups over the entry range
// [lo,hi) of a product, a group being one chunk of step entries from lo
// (DESIGN.md section 42): the codec view, the sweep's read decision, the
// k accumulators and the chunk the stream points at — its entries from
// storage or a stage. mask is the index mask, nrows and ncols the ranges
// of a row and a column index; wild is the position of the wild index a
// failed stream met.
type chunkSweep struct {
	m            *Matrix
	el           triplets
	full, commit bool
	img          *[16 * crcGroup]byte
	accs, xbufs  [][]float64
	lo, hi, step int
	base, end    int // the current chunk
	rows, cols   []uint32
	vals         []float64
	mask         uint32
	nrows, ncols int
	wild         int
}

// newSweep starts the sweep of entries [lo,hi) (codeword-aligned, so
// workers never share a codeword) into accs under sw: chunks of
// verifyChunk entries, or on a full CRC32C sweep one group each, whose
// image escapes into hash/crc32 and is allocated once per range.
func (m *Matrix) newSweep(accs, xbufs [][]float64, lo, hi int, sw core.Sweep) *chunkSweep {
	c := &chunkSweep{m: m, el: m.elems(), full: sw.Full, commit: sw.Commit, accs: accs, xbufs: xbufs,
		lo: lo, hi: hi, step: verifyChunk, mask: idxMask(m.Scheme()), nrows: m.Rows(), ncols: m.Cols()}
	if m.Scheme() == core.CRC32C && sw.Full {
		c.step, c.img = crcGroup, new([16 * crcGroup]byte)
	}
	return c
}

// Clean is chunk g's clean test: on a full sweep its committing check
// with nothing to commit or count; between full checks nothing.
func (c *chunkSweep) Clean(g int) (uint64, bool) {
	c.base = c.lo + g*c.step
	c.end = min(c.base+c.step, c.hi)
	c.rows, c.cols, c.vals = c.el.rows[c.base:c.end], c.el.cols[c.base:c.end], c.el.vals[c.base:c.end]
	if !c.full {
		return 0, true
	}
	v := c.el.checkRange(c.base, c.end, false, nil, c.img)
	return v.Checks, v.Clean()
}

// Cold is chunk g's cold path: its committing check, the stage of a
// chunk that check leaves dirty (a shared matrix hit a live fault), and
// the scatter of storage or the stage, whose wild index is its
// BoundsError.
func (c *chunkSweep) Cold(int) (uint64, error) {
	var v core.Verdict
	if c.full {
		v = c.el.checkRange(c.base, c.end, c.commit, c.m.Counters(), c.img)
		if v.Err == nil && v.Dirty {
			var st triplets
			st, v.Err = c.el.stage(c.base, c.end, c.img)
			c.rows, c.cols, c.vals = st.rows, st.cols, st.vals
		}
	}
	if v.Err == nil && !core.StreamGroup(c, len(c.accs)) {
		k := c.wild
		v.Err = c.m.boundsErr(c.base+k, c.rows[k]&c.mask, c.cols[k]&c.mask)
	}
	return v.Checks, v.Err
}

// Done has nothing to keep: the accumulators are reduced per product.
func (c *chunkSweep) Done(int, bool) {}

// Stream4 is one pass over the chunk for columns j..j+3, scattering
// into their four accumulators with only the index mask and the range
// checks applied. Entries scatter in storage order into each column's
// own accumulator, and the first pass meets every entry, so a wild index
// is found at the entry a width-1 product reports, before it is used.
func (c *chunkSweep) Stream4(j int) bool {
	a, x := (*[4][]float64)(c.accs[j:j+4]), (*[4][]float64)(c.xbufs[j:j+4])
	a0 := a[0][:c.nrows]
	a1, a2, a3 := a[1][:len(a0)], a[2][:len(a0)], a[3][:len(a0)]
	x0 := x[0][:c.ncols]
	x1, x2, x3 := x[1][:len(x0)], x[2][:len(x0)], x[3][:len(x0)]
	rows, mask := c.rows, c.mask
	cols, vals := c.cols[:len(rows)], c.vals[:len(rows)]
	for k, r := range rows {
		row, col := r&mask, cols[k]&mask
		if uint(row) >= uint(len(a0)) || uint(col) >= uint(len(x0)) {
			c.wild = k
			return false
		}
		v := vals[k]
		a0[row] += v * x0[col]
		a1[row] += v * x1[col]
		a2[row] += v * x2[col]
		a3[row] += v * x3[col]
	}
	return true
}

// Stream1 is Stream4 for the one column j.
func (c *chunkSweep) Stream1(j int) bool {
	acc, x := c.accs[j][:c.nrows], c.xbufs[j][:c.ncols]
	rows, mask := c.rows, c.mask
	cols, vals := c.cols[:len(rows)], c.vals[:len(rows)]
	for k, r := range rows {
		row, col := r&mask, cols[k]&mask
		if uint(row) >= uint(len(acc)) || uint(col) >= uint(len(x)) {
			c.wild = k
			return false
		}
		acc[row] += vals[k] * x[col]
	}
	return true
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
	g := groupSize(m.Scheme())
	return pick(len(m.vals)/g) * g, g
}

// ToCSR decodes and verifies the matrix back into CSR form, satisfying
// core.Layout.
func (m *Matrix) ToCSR() (*csr.Matrix, error) {
	if _, err := m.CheckAll(); err != nil {
		return nil, err
	}
	mask := idxMask(m.Scheme())
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
