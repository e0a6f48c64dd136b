package core

// rowReader is the per-row verify-then-stream protocol over CSR rows,
// written once for both of its callers: the cold path of the product
// (csrSweep.Cold) and RowScanner. It holds the row-pointer cursor, the
// element verifier, whether element codewords are verified, and the
// element checks counted since the last take. One reader serves one
// goroutine's sweep.
type rowReader struct {
	m          *Matrix
	cur        rowPtrCursor
	ver        rowVerifier
	full       bool // verify element codewords
	elemChecks uint64
}

// newRowReader starts a sweep over m's rows: verify checks what carries
// codewords, commit lets the sweep repair storage.
func (m *Matrix) newRowReader(verify, commit bool) rowReader {
	return rowReader{
		m:    m,
		cur:  m.cursor(verify, commit),
		ver:  m.newRowVerifier(commit),
		full: verify && m.scheme != None,
	}
}

// row reads row r: its pointers from the cursor, then one batch verify
// of its element codewords (rowVerifier.row). It returns the row's
// stored column indices and values and base, the storage index of its
// first entry. A clean row, or one whose corrections were committed,
// comes back as storage itself; a row holding a correction that could
// not be committed (a no-commit worker or a shared operator that hit a
// live fault) comes back as ColElems.DecodeLocal's stage. Columns still
// carry their redundancy bits: the caller applies the column mask and
// the range check against Cols, so a corrupted index is a BoundsError,
// never an out-of-range read.
func (rd *rowReader) row(r int) (cols []uint32, vals []float64, base int, err error) {
	lo, hi, err := rd.cur.bounds(r)
	if err != nil {
		return nil, nil, 0, err
	}
	if rd.full {
		dirty, checks, err := rd.ver.row(r, lo, hi)
		rd.elemChecks += checks
		if err != nil {
			return nil, nil, 0, err
		}
		if dirty {
			cols, vals, err := rd.ver.el.DecodeLocal(r, lo, hi-lo)
			return cols, vals, lo, err
		}
	}
	return rd.m.colIdx[lo:hi], rd.m.vals[lo:hi], lo, nil
}

// take returns the checks counted since the last take, for the caller
// to add to the matrix counters.
func (rd *rowReader) take() uint64 {
	n := rd.elemChecks + rd.cur.checks
	rd.elemChecks, rd.cur.checks = 0, 0
	return n
}

// rowVerifier is the per-sweep state of the verify half of the
// verify-then-stream protocol over CSR rows: the column-element codec
// view, the commit discipline of the sweep, and what must survive from
// one row to the next. One verifier serves one goroutine's sweep.
type rowVerifier struct {
	m      *Matrix
	el     ColElems
	commit bool
	// lastPair memoises the last verified SECDED128 pair across
	// consecutive rows so a codeword straddling a row boundary is checked
	// once; a straddling pair whose correction was not committed is left
	// unmemoised so the next row re-verifies it and falls back too.
	lastPair int
}

func (m *Matrix) newRowVerifier(commit bool) rowVerifier {
	return rowVerifier{m: m, el: m.elems(), commit: commit, lastPair: -1}
}

// row batch-verifies the element codewords covering entries [lo,hi) of
// row r with the codec's one clean test (ColElems.clean, or CheckRun's
// for the row's CRC32C codeword); only a failed test pays for the
// per-codeword cold path. When the row verifies clean (or every
// correction was committed to storage), the caller may stream the row's
// values and masked column indices straight from storage with no
// per-element decode.
//
// dirty reports that a correction was found but could not be committed:
// storage still holds the raw fault and the caller must stage the row
// through ColElems.DecodeLocal and stream the stage instead of storage.
//
// checks counts the codeword verifications performed, up to and
// including a failing one; the caller batches it into the counters.
func (v *rowVerifier) row(r, lo, hi int) (dirty bool, checks uint64, err error) {
	el := &v.el
	if el.Scheme == CRC32C {
		stale, err := el.CheckRun(r, lo, hi-lo, v.commit, v.m.counters)
		return stale, 1, err
	}
	checks, last, ok := el.clean(lo, hi, v.lastPair)
	if ok {
		v.lastPair = last
		return false, checks, nil
	}
	if el.Scheme == SECDED128 {
		return v.resolvePairs(pairSpan(lo, hi, v.lastPair))
	}
	return v.resolve64(lo, hi)
}

// resolve64 is row's SED and SECDED64 cold path, entered when the clean
// test failed somewhere in entries [lo,hi): the codewords are verified
// one at a time in storage order, so corrections, the reported codeword
// and the checks counted before it are those of a per-codeword pass.
func (v *rowVerifier) resolve64(lo, hi int) (dirty bool, checks uint64, err error) {
	for k := lo; k < hi; k++ {
		stale, err := v.el.checkEntry(k, v.commit, v.m.counters)
		if err != nil {
			return false, uint64(k - lo + 1), err
		}
		dirty = dirty || stale
	}
	return dirty, uint64(hi - lo), nil
}

// resolvePairs is resolve64 for the SECDED128 pairs t0..last.
func (v *rowVerifier) resolvePairs(t0, last int) (dirty bool, checks uint64, err error) {
	memoLast := true
	for t := t0; t <= last; t++ {
		stale, err := v.el.checkPair(t, v.commit, v.m.counters)
		if err != nil {
			return false, uint64(t - t0 + 1), err
		}
		if stale {
			dirty = true
			if t == last {
				memoLast = false
			}
		}
	}
	if memoLast {
		v.lastPair = last
	}
	return dirty, uint64(last - t0 + 1), nil
}
