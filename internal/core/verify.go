package core

// rowReader is the per-row verify-then-stream protocol over CSR rows,
// written once for both of its callers: the cold path of the product
// (csrSweep.rows) and RowScanner. It holds the row-pointer cursor, the
// element verifier, whether element codewords are verified, and the
// element checks counted since the last flush. One reader serves one
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
		cur:  rowPtrCursor{m: m, check: verify && m.rowScheme != None, commit: commit, group: -1},
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

// flush adds the checks counted since the last flush to the matrix
// counters.
func (rd *rowReader) flush() {
	rd.m.counters.AddChecks(rd.elemChecks + rd.cur.checks)
	rd.elemChecks, rd.cur.checks = 0, 0
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
// row r in one tight per-scheme pass: when the row verifies clean (or
// every correction was committed to storage), the caller may stream the
// row's values and masked column indices straight from storage with no
// per-element decode.
//
// dirty reports that a correction was found but could not be committed:
// storage still holds the raw fault and the caller must stage the row
// through ColElems.DecodeLocal and stream the stage instead of storage.
//
// checks counts the codeword verifications performed, up to and
// including a failing one; the caller batches it into the counters.
func (v *rowVerifier) row(r, lo, hi int) (dirty bool, checks uint64, err error) {
	el, commit, c := &v.el, v.commit, v.m.counters
	switch el.Scheme {
	case None:
	case SED:
		for k := lo; k < hi; k++ {
			if err := el.checkSED(k, c); err != nil {
				return false, uint64(k - lo + 1), err
			}
		}
		checks = uint64(hi - lo)
	case SECDED64:
		// One kernel call per row; a non-zero accumulator re-walks the
		// row one codeword at a time.
		if codecElem64.AccRun96(el.Vals[lo:hi], el.Cols[lo:hi]) != 0 {
			return v.resolve64(lo, hi)
		}
		checks = uint64(hi - lo)
	case SECDED128:
		if hi > lo {
			t0, last := lo/2, (hi-1)/2
			if t0 == v.lastPair {
				t0++
			}
			if codecElem128.AccRun192(el.Vals[2*t0:2*last+2], el.Cols[2*t0:2*last+2]) != 0 {
				return v.resolvePairs(t0, last)
			}
			checks = uint64(last - t0 + 1)
			v.lastPair = last
		}
	case CRC32C:
		checks++
		corrected, err := el.CheckRun(r, lo, hi-lo, commit, c)
		if err != nil {
			return false, checks, err
		}
		if corrected && !commit {
			dirty = true
		}
	}
	return dirty, checks, nil
}

// resolve64 is row's SECDED64 cold path, entered when the run kernel
// reported a fault somewhere in entries [lo,hi): the codewords are
// verified one at a time in storage order, so corrections, the reported
// codeword and the checks counted before it are those of a per-codeword
// pass.
func (v *rowVerifier) resolve64(lo, hi int) (dirty bool, checks uint64, err error) {
	for k := lo; k < hi; k++ {
		corrected, err := v.el.check64(k, v.commit, v.m.counters)
		if err != nil {
			return false, uint64(k - lo + 1), err
		}
		if corrected && !v.commit {
			dirty = true
		}
	}
	return dirty, uint64(hi - lo), nil
}

// resolvePairs is resolve64 for the SECDED128 pairs t0..last.
func (v *rowVerifier) resolvePairs(t0, last int) (dirty bool, checks uint64, err error) {
	memoLast := true
	for t := t0; t <= last; t++ {
		corrected, err := v.el.checkPair(t, v.commit, v.m.counters)
		if err != nil {
			return false, uint64(t - t0 + 1), err
		}
		if corrected && !v.commit {
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
