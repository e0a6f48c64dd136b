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
// Each row follows the verify-then-stream protocol of the product's cold
// path, through the same routine (rowReader): the row's codewords are
// batch-verified once, then the entries stream from storage with only
// the column mask and range check applied. In exclusive mode (the
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
	m  *Matrix
	rd rowReader
}

// NewRowScanner returns a scanner over m's rows.
func (m *Matrix) NewRowScanner() *RowScanner {
	s := &RowScanner{m: m}
	s.Reset()
	return s
}

// Reset forgets which codewords the scanner has already verified,
// starting a fresh sweep under the matrix's current read mode:
// corruption that struck between sweeps is caught again.
func (s *RowScanner) Reset() {
	s.rd = s.m.newRowReader(s.m.mode.Verifies(), s.m.mode.Commits())
}

// Row verifies row r's row-pointer and element codewords and streams
// the decoded (column, value) entries to fn in storage order. Unlike
// SpMV's raw baseline, the range check runs for unprotected elements
// too: visitors index by the column they are handed, so the check is
// what turns a corrupted index into a classified fault instead of a
// crash (paper's range-check rationale).
func (s *RowScanner) Row(r int, fn func(col int, val float64)) error {
	m := s.m
	if r < 0 || r >= m.rows {
		return fmt.Errorf("core: row %d out of range [0,%d)", r, m.rows)
	}
	cols, vals, base, err := s.rd.row(r)
	m.counters.AddChecks(s.rd.take())
	if err != nil {
		return err
	}
	mask := s.rd.ver.el.Mask()
	for i, c := range cols {
		col := c & mask
		if col >= uint32(m.cols) {
			return m.boundsErr(StructElements, base+i, col, uint32(m.cols))
		}
		fn(int(col), vals[i])
	}
	return nil
}
