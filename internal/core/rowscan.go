package core

import "fmt"

// RowScanner streams fully verified matrix rows to a caller-supplied
// visitor: the access pattern of triangular sweeps (the symmetric
// Gauss-Seidel preconditioner of internal/precond), which consume one
// row at a time in either direction instead of multiplying the whole
// matrix. Every codeword a scan touches — row-pointer groups and
// element codewords — is checked exactly as a full-check SpMV checks
// it.
//
// Each row follows the verify-then-stream protocol: the row's codewords
// are batch-verified once, then the entries stream from storage with
// only the column mask and range check applied. In exclusive mode (the
// default) repairs are committed to storage, so a verified row is
// always streamable. In shared mode (Matrix.SetReadMode(ModeShared))
// nothing is ever written back; a row whose verify found a correction it
// could not commit is staged through ColElems.DecodeLocal — the
// matrix-element analogue of a shared-mode Vector.Read — so the visitor
// still receives the corrected values while the stored fault stays for
// the owner's Scrub to clear.
//
// A scanner carries scratch buffers and codeword memoisation across
// rows, so one scanner serves a whole sweep; it is not safe for
// concurrent use. Reset clears the memoisation so a new sweep
// re-verifies state that may have been corrupted since the last one.
type RowScanner struct {
	m   *Matrix
	cur rowPtrCursor // row-pointer cursor (locally corrected decode)
	ver rowVerifier  // element verify state (SECDED128 memo)
}

// NewRowScanner returns a scanner over m's rows.
func (m *Matrix) NewRowScanner() *RowScanner {
	s := &RowScanner{m: m, ver: m.newRowVerifier(false)}
	s.Reset()
	return s
}

// Reset forgets which codewords the scanner has already verified,
// starting a fresh sweep under the matrix's current read mode:
// corruption that struck between sweeps is caught again.
func (s *RowScanner) Reset() {
	s.cur = rowPtrCursor{
		m:      s.m,
		check:  s.m.rowScheme != None && s.m.mode.Verifies(),
		commit: s.m.mode.Commits(),
		group:  -1,
	}
	s.ver.el = s.m.elems()
	s.ver.commit = s.m.mode.Commits()
	s.ver.lastPair = -1
}

// Row verifies row r's row-pointer and element codewords and streams
// the decoded (column, value) entries to fn in storage order.
func (s *RowScanner) Row(r int, fn func(col int, val float64)) error {
	m := s.m
	if r < 0 || r >= m.rows {
		return fmt.Errorf("core: row %d out of range [0,%d)", r, m.rows)
	}
	var checks uint64
	curBefore := s.cur.checks
	defer func() {
		m.counters.AddChecks(checks + s.cur.checks - curBefore)
	}()
	lo32, err := s.cur.value(r)
	if err != nil {
		return err
	}
	hi32, err := s.cur.value(r + 1)
	if err != nil {
		return err
	}
	if lo32 > hi32 {
		return m.boundsErr(StructRowPtr, r, lo32, hi32)
	}
	lo, hi := int(lo32), int(hi32)
	dirty := false
	if m.scheme != None && m.mode.Verifies() {
		var ec uint64
		dirty, ec, err = s.ver.row(r, lo, hi)
		checks += ec
		if err != nil {
			return err
		}
	}
	if dirty {
		// Stage the dirty row, stream the stage.
		cols, vals, err := s.ver.el.DecodeLocal(r, lo, hi-lo)
		if err != nil {
			return err
		}
		for j, col := range cols {
			if col >= uint32(m.cols) {
				return m.boundsErr(StructElements, lo+j, col, uint32(m.cols))
			}
			fn(int(col), vals[j])
		}
		return nil
	}
	// Unlike SpMV's raw baseline path, the range check also runs for
	// unprotected matrices: visitors index by the column we hand them, so
	// the check is what turns a corrupted index into a classified fault
	// instead of a crash (paper's range-check rationale).
	colMask := s.ver.el.Mask()
	for k := lo; k < hi; k++ {
		col := m.colIdx[k] & colMask
		if col >= uint32(m.cols) {
			return m.boundsErr(StructElements, k, col, uint32(m.cols))
		}
		fn(int(col), m.vals[k])
	}
	return nil
}
