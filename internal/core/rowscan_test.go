package core

import (
	"errors"
	"math"
	"testing"

	"abft/internal/csr"
)

func scannerMatrix(t *testing.T, elem, rowptr Scheme) *Matrix {
	t.Helper()
	m, err := NewMatrix(csr.Laplacian2D(8, 6), MatrixOptions{ElemScheme: elem, RowPtrScheme: rowptr})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// scanAll decodes the whole matrix through a scanner into triplets.
func scanAll(t *testing.T, m *Matrix) map[[2]int]float64 {
	t.Helper()
	s := m.NewRowScanner()
	out := map[[2]int]float64{}
	for r := 0; r < m.Rows(); r++ {
		row := r
		if err := s.Row(r, func(c int, v float64) {
			out[[2]int{row, c}] = v
		}); err != nil {
			t.Fatalf("row %d: %v", r, err)
		}
	}
	return out
}

// TestRowScannerMatchesReference: both modes, every scheme pair, both
// sweep directions decode exactly the assembled entries.
func TestRowScannerMatchesReference(t *testing.T) {
	plain := csr.Laplacian2D(8, 6)
	want := map[[2]int]float64{}
	for r := 0; r < plain.Rows(); r++ {
		for k := plain.RowPtr[r]; k < plain.RowPtr[r+1]; k++ {
			want[[2]int{r, int(plain.Cols[k])}] = plain.Vals[k]
		}
	}
	for _, s := range Schemes {
		for _, mode := range []ReadMode{ModeExclusive, ModeShared} {
			shared := mode == ModeShared
			m := scannerMatrix(t, s, s)
			m.SetReadMode(mode)
			got := scanAll(t, m)
			for key, v := range want {
				if got[key] != v {
					t.Fatalf("%v shared=%v: entry %v = %v, want %v", s, shared, key, got[key], v)
				}
			}
			// Backward sweep decodes identically (entries aggregate per
			// (row, col), since assembly pads short rows with duplicate
			// explicit zeros).
			sc := m.NewRowScanner()
			back := map[[2]int]float64{}
			for r := m.Rows() - 1; r >= 0; r-- {
				row := r
				if err := sc.Row(r, func(c int, v float64) {
					back[[2]int{row, c}] = v
				}); err != nil {
					t.Fatal(err)
				}
			}
			for key, v := range want {
				if back[key] != v {
					t.Fatalf("%v shared=%v: backward entry %v = %v, want %v", s, shared, key, back[key], v)
				}
			}
		}
	}
}

// TestRowScannerSharedUsesCorrectedValues pins the shared-mode
// contract: a correctable flip is never committed, but the visitor
// receives the corrected value — the matrix-element analogue of
// a shared-mode Vector.Read.
func TestRowScannerSharedUsesCorrectedValues(t *testing.T) {
	for _, s := range []Scheme{SECDED64, SECDED128, CRC32C} {
		clean := scannerMatrix(t, s, s)
		want := scanAll(t, clean)

		m := scannerMatrix(t, s, s)
		var c Counters
		m.SetCounters(&c)
		m.SetReadMode(ModeShared)
		m.RawVals()[0] = math.Float64frombits(math.Float64bits(m.RawVals()[0]) ^ 1<<40)

		got := scanAll(t, m)
		for key, v := range want {
			if got[key] != v {
				t.Fatalf("%v: shared scan streamed the corrupted value at %v: %v want %v", s, key, got[key], v)
			}
		}
		if c.Corrected() == 0 {
			t.Fatalf("%v: correction not counted", s)
		}
		// Nothing was committed: the owner's scrub still finds the flip.
		m.SetReadMode(ModeExclusive)
		if corrected, err := m.Scrub(); err != nil || corrected != 1 {
			t.Fatalf("%v: shared scan committed the repair: corrected=%d err=%v", s, corrected, err)
		}
	}
}

// TestRowScannerSharedRowPtrCorrection: a flip in a row-pointer
// codeword is corrected locally in shared mode, giving the right row
// bounds without a commit.
func TestRowScannerSharedRowPtrCorrection(t *testing.T) {
	for _, s := range []Scheme{SECDED64, SECDED128, CRC32C} {
		clean := scannerMatrix(t, SECDED64, s)
		want := scanAll(t, clean)
		m := scannerMatrix(t, SECDED64, s)
		var c Counters
		m.SetCounters(&c)
		m.SetReadMode(ModeShared)
		m.RawRowPtr()[3] ^= 1 << 5 // a data bit under every row-pointer layout
		got := scanAll(t, m)
		for key, v := range want {
			if got[key] != v {
				t.Fatalf("%v: corrupted row pointer leaked: %v = %v want %v", s, key, got[key], v)
			}
		}
		if c.Corrected() == 0 {
			t.Fatalf("%v: row-pointer correction not counted", s)
		}
		m.SetReadMode(ModeExclusive)
		if corrected, err := m.Scrub(); err != nil || corrected != 1 {
			t.Fatalf("%v: repair was committed in shared mode: corrected=%d err=%v", s, corrected, err)
		}
	}
}

// TestRowScannerDetectsDoubleFlip: uncorrectable damage surfaces as a
// FaultError in both modes.
func TestRowScannerDetectsDoubleFlip(t *testing.T) {
	for _, mode := range []ReadMode{ModeExclusive, ModeShared} {
		shared := mode == ModeShared
		m := scannerMatrix(t, SECDED64, SECDED64)
		m.SetReadMode(mode)
		m.RawVals()[0] = math.Float64frombits(math.Float64bits(m.RawVals()[0]) ^ 1<<40 ^ 1<<41)
		sc := m.NewRowScanner()
		err := sc.Row(0, func(int, float64) {})
		var fe *FaultError
		if err == nil || !errors.As(err, &fe) {
			t.Fatalf("shared=%v: double flip not detected: %v", shared, err)
		}
	}
}

// TestRowScannerRejectsBadRow: out-of-range rows error in both modes.
func TestRowScannerRejectsBadRow(t *testing.T) {
	m := scannerMatrix(t, SECDED64, SECDED64)
	sc := m.NewRowScanner()
	if err := sc.Row(-1, func(int, float64) {}); err == nil {
		t.Fatal("negative row accepted")
	}
	if err := sc.Row(m.Rows(), func(int, float64) {}); err == nil {
		t.Fatal("past-the-end row accepted")
	}
}
