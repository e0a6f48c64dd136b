// Package csr provides the unprotected compressed-sparse-row matrix
// substrate: construction, validation and the reference SpMV kernel against
// which the ABFT-protected implementations in package core are verified and
// benchmarked.
//
// An m x n matrix is stored as three dense vectors (the paper's v, y and x
// vectors): Vals holds the non-zero float64 values in row-major order,
// Cols holds the 32-bit column index of each value, and RowPtr holds, for
// each row, the index into Vals of its first entry, with RowPtr[m] == NNZ.
package csr

import (
	"fmt"
	"slices"
	"sort"
)

// Matrix is an m x n sparse matrix in CSR format.
type Matrix struct {
	rows, cols int
	RowPtr     []uint32
	Cols       []uint32
	Vals       []float64
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols32 returns the number of columns.
func (m *Matrix) Cols32() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *Matrix) NNZ() int { return len(m.Vals) }

// Entry is a single (row, col, value) triplet used during construction.
type Entry struct {
	Row, Col int
	Val      float64
}

// New assembles a CSR matrix from triplets. Duplicate (row,col) entries are
// preserved in insertion order (SpMV sums them); entries within a row are
// sorted by column. Triplets outside [0,rows) x [0,cols) are rejected.
func New(rows, cols int, entries []Entry) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("csr: invalid dimensions %dx%d", rows, cols)
	}
	counts := make([]uint32, rows+1)
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("csr: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
		counts[e.Row+1]++
	}
	for i := 1; i <= rows; i++ {
		counts[i] += counts[i-1]
	}
	m := &Matrix{
		rows:   rows,
		cols:   cols,
		RowPtr: counts,
		Cols:   make([]uint32, len(entries)),
		Vals:   make([]float64, len(entries)),
	}
	next := make([]uint32, rows)
	copy(next, counts[:rows])
	for _, e := range entries {
		k := next[e.Row]
		m.Cols[k] = uint32(e.Col)
		m.Vals[k] = e.Val
		next[e.Row]++
	}
	for r := 0; r < rows; r++ {
		lo, hi := int(m.RowPtr[r]), int(m.RowPtr[r+1])
		// A stable sort of a row already in column order is the
		// identity: only a row out of order is sorted.
		if !slices.IsSorted(m.Cols[lo:hi]) {
			sort.Stable(rowView{m, lo, hi})
		}
	}
	return m, nil
}

type rowView struct {
	m      *Matrix
	lo, hi int
}

func (r rowView) Len() int { return r.hi - r.lo }
func (r rowView) Less(i, j int) bool {
	return r.m.Cols[r.lo+i] < r.m.Cols[r.lo+j]
}
func (r rowView) Swap(i, j int) {
	i, j = r.lo+i, r.lo+j
	r.m.Cols[i], r.m.Cols[j] = r.m.Cols[j], r.m.Cols[i]
	r.m.Vals[i], r.m.Vals[j] = r.m.Vals[j], r.m.Vals[i]
}

// Validate checks the structural invariants of the matrix: monotone row
// pointers bounded by NNZ and in-range column indices.
func (m *Matrix) Validate() error {
	if len(m.RowPtr) != m.rows+1 {
		return fmt.Errorf("csr: rowptr length %d, want %d", len(m.RowPtr), m.rows+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("csr: rowptr[0] = %d, want 0", m.RowPtr[0])
	}
	if int(m.RowPtr[m.rows]) != len(m.Vals) || len(m.Cols) != len(m.Vals) {
		return fmt.Errorf("csr: rowptr end %d / cols %d / vals %d inconsistent",
			m.RowPtr[m.rows], len(m.Cols), len(m.Vals))
	}
	for r := 0; r < m.rows; r++ {
		if m.RowPtr[r] > m.RowPtr[r+1] {
			return fmt.Errorf("csr: rowptr not monotone at row %d", r)
		}
	}
	for k, c := range m.Cols {
		if int(c) >= m.cols {
			return fmt.Errorf("csr: column %d at entry %d exceeds %d", c, k, m.cols)
		}
	}
	return nil
}

// MinRowEntries returns the smallest number of stored entries in any row.
func (m *Matrix) MinRowEntries() int {
	if m.rows == 0 {
		return 0
	}
	min := int(m.RowPtr[1] - m.RowPtr[0])
	for r := 1; r < m.rows; r++ {
		if n := int(m.RowPtr[r+1] - m.RowPtr[r]); n < min {
			min = n
		}
	}
	return min
}

// PadRows returns a copy of m in which every row holds at least minEntries
// stored entries, padding short rows with explicit zero values on the
// diagonal column (clamped into range). Zero padding does not change the
// operator: SpMV adds 0*x[c]. CRC32C element protection requires >=4
// entries per row; PadRows makes arbitrary matrices eligible.
func (m *Matrix) PadRows(minEntries int) *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols}
	out.RowPtr = make([]uint32, m.rows+1)
	nnz := 0
	for r := 0; r < m.rows; r++ {
		n := int(m.RowPtr[r+1] - m.RowPtr[r])
		if n < minEntries {
			n = minEntries
		}
		nnz += n
	}
	out.Cols = make([]uint32, 0, nnz)
	out.Vals = make([]float64, 0, nnz)
	for r := 0; r < m.rows; r++ {
		lo, hi := int(m.RowPtr[r]), int(m.RowPtr[r+1])
		out.Cols = append(out.Cols, m.Cols[lo:hi]...)
		out.Vals = append(out.Vals, m.Vals[lo:hi]...)
		pad := r
		if pad >= m.cols {
			pad = m.cols - 1
		}
		for n := hi - lo; n < minEntries; n++ {
			out.Cols = append(out.Cols, uint32(pad))
			out.Vals = append(out.Vals, 0)
		}
		out.RowPtr[r+1] = uint32(len(out.Vals))
	}
	return out
}

// SpMV computes dst = m * x. It is the unprotected reference kernel.
func (m *Matrix) SpMV(dst, x []float64) {
	if len(dst) < m.rows || len(x) < m.cols {
		panic("csr: SpMV slice lengths too short")
	}
	for r := 0; r < m.rows; r++ {
		var sum float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			sum += m.Vals[k] * x[m.Cols[k]]
		}
		dst[r] = sum
	}
}

// Diagonal extracts the main diagonal into dst (summing duplicates).
func (m *Matrix) Diagonal(dst []float64) {
	if len(dst) < m.rows {
		panic("csr: Diagonal slice too short")
	}
	for r := 0; r < m.rows; r++ {
		var d float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if int(m.Cols[k]) == r {
				d += m.Vals[k]
			}
		}
		dst[r] = d
	}
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{rows: m.rows, cols: m.cols}
	out.RowPtr = append([]uint32(nil), m.RowPtr...)
	out.Cols = append([]uint32(nil), m.Cols...)
	out.Vals = append([]float64(nil), m.Vals...)
	return out
}

// IsSymmetric reports whether the matrix equals its transpose within tol.
// Intended for tests and assembly validation, not hot paths.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	type key struct{ r, c int }
	vals := make(map[key]float64, m.NNZ())
	for r := 0; r < m.rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			vals[key{r, int(m.Cols[k])}] += m.Vals[k]
		}
	}
	for k, v := range vals {
		w := vals[key{k.c, k.r}]
		diff := v - w
		if diff < 0 {
			diff = -diff
		}
		if diff > tol {
			return false
		}
	}
	return true
}
