package core

import (
	"encoding/binary"
	"math"

	"abft/internal/ecc"
)

// ColElems is the column-element codec: the one implementation of the
// paper's Fig 1 layout, in which a sparse-matrix element is the 96-bit
// (value, column index) pair and the redundancy lives in the spare top
// bits of the 32-bit column index (DESIGN.md section 3). It is a view
// over a format's own value and column arrays — never a copy — so every
// format that stores (value, column) elements shares it: the CSR matrix
// of this package and the SELL-C-sigma matrix of internal/sell.
//
// Codewords are addressed by storage position, not by format geometry:
//
//	SED, SECDED64  one storage entry
//	SECDED128      the storage-consecutive pair (2t, 2t+1)
//	CRC32C         a run of n >= 4 storage-consecutive entries at base —
//	               a CSR row, or a chunk of at most 13 columns of a SELL
//	               slice (column-major, so contiguous)
//
// The codec holds no state of its own: every check takes the commit
// discipline and the counters to record into explicitly (nil counts
// nothing), and builds the FaultError itself.
type ColElems struct {
	Scheme  Scheme
	Backend ecc.Backend
	Vals    []float64
	Cols    []uint32
}

// Mask returns the AND-mask isolating the data bits of a stored column
// index; it equals the scheme's largest addressable column.
func (e *ColElems) Mask() uint32 { return uint32(e.Scheme.MaxCols()) }

func (e *ColElems) fault(c *Counters, idx int, detail string) error {
	c.AddDetected(1)
	return &FaultError{Structure: StructElements, Scheme: e.Scheme, Index: idx, Detail: detail}
}

// word64 loads entry k as a SECDED64 codeword: [val(64) | col(32)].
func (e *ColElems) word64(k int) ecc.Word4 {
	return ecc.Word4{math.Float64bits(e.Vals[k]), uint64(e.Cols[k])}
}

// wordPair loads entries 2t and 2t+1 as a SECDED128 codeword:
// [val0(64) | col0(32) | val1(64) | col1(32)].
func (e *ColElems) wordPair(t int) ecc.Word4 {
	x, y, z := ecc.Pair192(e.Vals[2*t], e.Cols[2*t], e.Vals[2*t+1], e.Cols[2*t+1])
	return ecc.Word4{x, y, z}
}

// splitPair is the inverse of wordPair.
func splitPair(cw *ecc.Word4) (v0 float64, c0 uint32, v1 float64, c1 uint32) {
	return math.Float64frombits(cw[0]), uint32(cw[1]),
		math.Float64frombits(cw[1]>>32 | cw[2]<<32), uint32(cw[2] >> 32)
}

// Encode recomputes the redundancy of the per-entry codewords covering
// storage entries [lo,hi) from the data bits currently stored; under
// SECDED128 lo and hi must be pair-aligned. CRC32C codewords are runs,
// encoded by EncodeRun.
func (e *ColElems) Encode(lo, hi int) {
	switch e.Scheme {
	case SED:
		for k := lo; k < hi; k++ {
			c := e.Cols[k] & sedColMask
			e.Cols[k] = c | uint32(ecc.Parity64(math.Float64bits(e.Vals[k])^uint64(c)))<<31
		}
	case SECDED64:
		for k := lo; k < hi; k++ {
			_, y := codecElem64.Encode96(math.Float64bits(e.Vals[k]), uint64(e.Cols[k]&eccColMask))
			e.Cols[k] = uint32(y)
		}
	case SECDED128:
		for t := lo / 2; 2*t < hi; t++ {
			_, y, z := codecElem128.Encode192(ecc.Pair192(
				e.Vals[2*t], e.Cols[2*t]&eccColMask, e.Vals[2*t+1], e.Cols[2*t+1]&eccColMask))
			e.Cols[2*t], e.Cols[2*t+1] = uint32(y), uint32(z>>32)
		}
	}
}

// EncodeRun recomputes the CRC32C of the run of n >= 4 entries at base:
// ecc.RunChecksum's message — the run's values, then its column indices
// with every top byte cleared — stored byte-wise in the top bytes of the
// run's last four column indices. The checksum is taken over storage
// where it lies; nothing is serialised.
func (e *ColElems) EncodeRun(base, n int) {
	cols := e.Cols[base : base+n]
	for j := range cols {
		cols[j] &= eccColMask
	}
	crc, _ := ecc.RunChecksum(e.Vals[base:base+n], cols, e.Backend)
	for i := 0; i < 4; i++ {
		cols[n-4+i] |= (crc >> (8 * uint(i)) & 0xFF) << 24
	}
}

// pairSpan returns the SECDED128 pairs t0..last covering entries
// [lo,hi), hi > lo, less pair skip when it is the first: the pair a
// previous span already verified.
func pairSpan(lo, hi, skip int) (t0, last int) {
	t0, last = lo/2, (hi-1)/2
	if t0 == skip {
		t0++
	}
	return t0, last
}

// clean is the clean test of the per-entry codewords (SED, SECDED64,
// SECDED128 pairs) covering entries [lo,hi), which every verify pass
// shares: one kernel call over the whole span where it lies — under
// SECDED one fold and a parity test per codeword (DESIGN.md section
// 45) — with nothing decoded, counted or committed. Under SECDED128 pair skip is left out
// (pairSpan) and last is the span's last pair, the next span's skip;
// otherwise, and for an empty span, last is skip. checks is the number
// of codewords the span holds, whether or not they are clean. None and
// CRC32C have no per-entry codewords and are always clean here.
func (e *ColElems) clean(lo, hi, skip int) (checks uint64, last int, ok bool) {
	if hi <= lo {
		return 0, skip, true
	}
	switch e.Scheme {
	case SED:
		var acc uint64
		for k := lo; k < hi; k++ {
			acc |= ecc.Parity64(math.Float64bits(e.Vals[k]) ^ uint64(e.Cols[k]))
		}
		return uint64(hi - lo), skip, acc == 0
	case SECDED64:
		return uint64(hi - lo), skip, codecElem64.FoldRun96(e.Vals[lo:hi], e.Cols[lo:hi]) == 0
	case SECDED128:
		t0, last := pairSpan(lo, hi, skip)
		return uint64(last - t0 + 1), last, codecElem128.FoldRun192(e.Vals[2*t0:2*last+2], e.Cols[2*t0:2*last+2]) == 0
	}
	return 0, skip, true
}

// runClean is CheckRun's clean test for the run of n entries at base:
// a codeword-shaped run inside storage whose checksum verifies, with
// nothing counted.
func (e *ColElems) runClean(base, n int) bool {
	if n < 4 || base+n > len(e.Cols) {
		return false
	}
	crc, stored := ecc.RunChecksum(e.Vals[base:base+n], e.Cols[base:base+n], e.Backend)
	return crc == stored
}

// checkEntry verifies entry k under SED (detection only) or SECDED64,
// repairing a single flip in storage when commit is true. The first
// return reports storage stale: a correction was found and commit was
// false. It is the per-codeword cold path: verify
// passes check a whole span with one clean test and come here, one
// codeword at a time in storage order, only when that failed.
func (e *ColElems) checkEntry(k int, commit bool, c *Counters) (bool, error) {
	if e.Scheme == SED {
		if ecc.Parity64(math.Float64bits(e.Vals[k])^uint64(e.Cols[k])) != 0 {
			return false, e.fault(c, k, "parity mismatch")
		}
		return false, nil
	}
	cw := e.word64(k)
	res, _ := codecElem64.Check(&cw)
	if res == ecc.OK {
		return false, nil
	}
	if res == ecc.Corrected && commit {
		e.Vals[k] = math.Float64frombits(cw[0])
		e.Cols[k] = uint32(cw[1])
	}
	return e.settle(c, res, commit, k, "secded64 double-bit error")
}

// checkPair verifies the SECDED128 pair t (entries 2t and 2t+1) with
// checkEntry's contract.
func (e *ColElems) checkPair(t int, commit bool, c *Counters) (bool, error) {
	cw := e.wordPair(t)
	res, _ := codecElem128.Check(&cw)
	if res == ecc.OK {
		return false, nil
	}
	if res == ecc.Corrected && commit {
		e.Vals[2*t], e.Cols[2*t], e.Vals[2*t+1], e.Cols[2*t+1] = splitPair(&cw)
	}
	return e.settle(c, res, commit, t, "secded128 double-bit error")
}

// settle counts a SECDED codeword that did not verify clean: a
// correction, stale unless committed, or an uncorrectable error
// reported as the codec's fault.
func (e *ColElems) settle(c *Counters, res ecc.CheckResult, commit bool, idx int, detail string) (bool, error) {
	if res == ecc.Detected {
		return false, e.fault(c, idx, detail)
	}
	c.AddCorrected(1)
	return !commit, nil
}

// Check verifies every per-entry codeword (SED, SECDED64, SECDED128
// pairs) covering storage entries [lo,hi) with one clean test, walking
// them one at a time only when it fails: repairing correctable errors
// in storage when commit is true and continuing past uncorrectable ones
// so the full damage is counted. A Dirty verdict means storage still
// holds the raw fault, and a caller about to stream it must stream
// DecodeLocal's stage instead; its Checks are for the caller to batch
// into its counters. With commit false and nil counters it is a clean
// test that writes and counts nothing. None and CRC32C have no
// per-entry codewords and verify nothing here.
func (e *ColElems) Check(lo, hi int, commit bool, c *Counters) (v Verdict) {
	checks, last, ok := e.clean(lo, hi, -1)
	if ok {
		return Verdict{Checks: checks}
	}
	if e.Scheme == SECDED128 {
		for t := lo / 2; t <= last; t++ {
			v.Note(e.checkPair(t, commit, c))
		}
	} else {
		for k := lo; k < hi; k++ {
			v.Note(e.checkEntry(k, commit, c))
		}
	}
	return v
}

// CheckRun verifies the CRC32C codeword of the run of n entries at base,
// repairing up to two flips in storage when commit is true; id names the
// run (the CSR row, the SELL chunk) in the FaultError. The clean path is
// runClean, one ecc.RunChecksum over storage where it lies; only a
// mismatch builds the run's codeword image and repairs it with
// ecc.RepairCodeword (DESIGN.md section 31). A run shorter than the
// checksum or reaching past the end of storage means the structure that
// delimits runs (the CSR row pointers) is itself corrupted beyond
// repair; that is reported as a fault, not a crash. The first return is
// checkEntry's.
func (e *ColElems) CheckRun(id, base, n int, commit bool, c *Counters) (stale bool, err error) {
	if e.runClean(base, n) {
		return false, nil
	}
	if err := e.runBounds(id, base, n, c); err != nil {
		return false, err
	}
	crc, stored := ecc.RunChecksum(e.Vals[base:base+n], e.Cols[base:base+n], e.Backend)
	img := e.runImage(base, n)
	if !ecc.RepairCodeword(img, runSlot(n), stored, crc) {
		return false, e.fault(c, id, "crc32c mismatch beyond correction depth")
	}
	c.AddCorrected(1)
	if commit {
		splitRun(img, e.Vals[base:base+n], e.Cols[base:base+n])
	}
	return !commit, nil
}

// runBounds reports a run that cannot be a codeword: shorter than its
// four checksum slots or reaching past the end of storage.
func (e *ColElems) runBounds(id, base, n int, c *Counters) error {
	if n < 4 || base+n > len(e.Cols) {
		return e.fault(c, id, "run shorter than its checksum or past the end of storage (corrupted row pointers)")
	}
	return nil
}

// runImage serialises the message of the run of n entries at base: the
// values little-endian, then the column indices little-endian with the
// four slot bytes cleared — the bytes ecc.RunChecksum covers.
func (e *ColElems) runImage(base, n int) []byte {
	msg := make([]byte, 12*n)
	for j, v := range e.Vals[base : base+n] {
		binary.LittleEndian.PutUint64(msg[8*j:], math.Float64bits(v))
	}
	for j, col := range e.Cols[base : base+n] {
		if j >= n-4 {
			col &= eccColMask
		}
		binary.LittleEndian.PutUint32(msg[8*n+4*j:], col)
	}
	return msg
}

// runSlot places bit k of the checksum of a run of n entries in its
// codeword image: bit 24+k%8 of column index n-4+k/8.
func runSlot(n int) func(k int) int {
	return func(k int) int { return 64*n + 32*(n-4+k/8) + 24 + k%8 }
}

// splitRun reads a run's codeword image back into its values and raw
// column indices.
func splitRun(img []byte, vals []float64, cols []uint32) {
	n := len(vals)
	for j := range vals {
		vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(img[8*j:]))
		cols[j] = binary.LittleEndian.Uint32(img[8*n+4*j:])
	}
}

// DecodeLocal is the corrective fallback of the verify-then-stream
// protocol (DESIGN.md section 12): it stages the n storage-consecutive
// entries at base — masked column and value, every correction applied —
// in fresh slices, writing nothing to storage and counting nothing. A
// kernel whose verify pass reported a block dirty (a correction it could
// not commit) streams this stage instead of storage; the verify pass
// already accounted the checks and the correction. The stage is a copy
// of the codewords covering the entries, repaired by the codec's own
// committing check — Check, or CheckRun under CRC32C, where the entries
// are exactly one run named id — so it holds what a committed repair
// would have left in storage, and a fault names its storage codeword.
func (e *ColElems) DecodeLocal(id, base, n int) (cols []uint32, vals []float64, err error) {
	lo, hi := base, base+n
	switch e.Scheme {
	case CRC32C:
		if err := e.runBounds(id, base, n, nil); err != nil {
			return nil, nil, err
		}
	case SECDED128:
		lo, hi = lo&^1, (hi+1)&^1
	}
	stage := ColElems{Scheme: e.Scheme, Backend: e.Backend,
		Vals: append([]float64(nil), e.Vals[lo:hi]...), Cols: append([]uint32(nil), e.Cols[lo:hi]...)}
	if e.Scheme == CRC32C {
		_, err = stage.CheckRun(id, 0, n, true, nil)
	} else if err = stage.Check(0, hi-lo, true, nil).Err; err != nil {
		err.(*FaultError).Index += lo / e.Scheme.ElemGroup()
	}
	if err != nil {
		return nil, nil, err
	}
	cols, vals = stage.Cols[base-lo:base-lo+n], stage.Vals[base-lo:base-lo+n]
	for j := range cols {
		cols[j] &= e.Mask()
	}
	return cols, vals, nil
}
