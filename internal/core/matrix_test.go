package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"abft/internal/csr"
)

// flipFloatBit flips one bit of the IEEE-754 representation of x,
// modelling a soft error in a stored value.
func flipFloatBit(x float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ 1<<bit)
}

// testMatrix builds a small five-point operator, the paper's workload shape.
func testMatrix(t *testing.T, nx, ny int) *csr.Matrix {
	t.Helper()
	m := csr.Laplacian2D(nx, ny)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// randomMatrix builds an irregular sparse matrix exercising non-uniform
// row lengths (including empty rows).
func randomMatrix(t *testing.T, rng *rand.Rand, rows, cols int) *csr.Matrix {
	t.Helper()
	var entries []csr.Entry
	for r := 0; r < rows; r++ {
		n := rng.Intn(7)
		for i := 0; i < n; i++ {
			entries = append(entries, csr.Entry{Row: r, Col: rng.Intn(cols), Val: rng.NormFloat64()})
		}
	}
	m, err := csr.New(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func allSchemePairs() [][2]Scheme {
	var out [][2]Scheme
	for _, es := range Schemes {
		for _, rs := range Schemes {
			out = append(out, [2]Scheme{es, rs})
		}
	}
	return out
}

func matricesEqual(a, b *csr.Matrix) bool {
	if a.Rows() != b.Rows() || a.Cols32() != b.Cols32() || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] || a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

func TestMatrixRoundTripAllSchemes(t *testing.T) {
	src := testMatrix(t, 7, 5)
	for _, p := range allSchemePairs() {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: p[0], RowPtrScheme: p[1]})
		if err != nil {
			t.Fatalf("%v/%v: %v", p[0], p[1], err)
		}
		back, err := m.ToCSR()
		if err != nil {
			t.Fatalf("%v/%v: ToCSR: %v", p[0], p[1], err)
		}
		// SECDED128 may pad one entry; compare operators via SpMV instead
		// of structure when NNZ changed.
		if back.NNZ() == src.NNZ() {
			if !matricesEqual(src, back) {
				t.Fatalf("%v/%v: decoded matrix differs", p[0], p[1])
			}
			continue
		}
		x := make([]float64, src.Cols32())
		for i := range x {
			x[i] = float64(i%17) - 8
		}
		ya := make([]float64, src.Rows())
		yb := make([]float64, src.Rows())
		src.SpMV(ya, x)
		back.SpMV(yb, x)
		for i := range ya {
			if ya[i] != yb[i] {
				t.Fatalf("%v/%v: padded operator differs at row %d", p[0], p[1], i)
			}
		}
	}
}

func TestMatrixRoundTripIrregular(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	src := randomMatrix(t, rng, 33, 29)
	for _, p := range allSchemePairs() {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: p[0], RowPtrScheme: p[1]})
		if err != nil {
			t.Fatalf("%v/%v: %v", p[0], p[1], err)
		}
		back, err := m.ToCSR()
		if err != nil {
			t.Fatalf("%v/%v: %v", p[0], p[1], err)
		}
		x := make([]float64, src.Cols32())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ya := make([]float64, src.Rows())
		yb := make([]float64, src.Rows())
		src.SpMV(ya, x)
		back.SpMV(yb, x)
		for i := range ya {
			if ya[i] != yb[i] {
				t.Fatalf("%v/%v: row %d: %g vs %g", p[0], p[1], i, ya[i], yb[i])
			}
		}
	}
}

func TestMatrixConstraints(t *testing.T) {
	// Column count beyond the 24-bit limit must be rejected for SECDED.
	wide, err := csr.New(1, 1<<25, []csr.Entry{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMatrix(wide, MatrixOptions{ElemScheme: SECDED64}); err == nil {
		t.Fatal("accepted 2^25 columns under secded64")
	}
	if _, err := NewMatrix(wide, MatrixOptions{ElemScheme: SED}); err != nil {
		t.Fatalf("sed should allow 2^25 columns: %v", err)
	}

	// CRC32C needs >=4 entries per row: autopad widens thin rows.
	thin, err := csr.New(2, 8, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 3, Val: 2}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(thin, MatrixOptions{ElemScheme: CRC32C})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() < 8 {
		t.Fatalf("autopad did not widen rows: nnz=%d", m.NNZ())
	}
	back, err := m.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ya, yb := make([]float64, 2), make([]float64, 2)
	thin.SpMV(ya, x)
	back.SpMV(yb, x)
	if ya[0] != yb[0] || ya[1] != yb[1] {
		t.Fatal("autopad changed the operator")
	}

	// SECDED128 with odd NNZ: autopad adds one zero entry.
	odd, err := csr.New(2, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 1, Val: 2}, {Row: 1, Col: 1, Val: 3}})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMatrix(odd, MatrixOptions{ElemScheme: SECDED128})
	if err != nil {
		t.Fatal(err)
	}
	if m2.NNZ() != 4 {
		t.Fatalf("nnz=%d want 4", m2.NNZ())
	}
}

func TestMatrixSingleFlipColIdx(t *testing.T) {
	src := testMatrix(t, 6, 6)
	for _, es := range ProtectingSchemes {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: es, RowPtrScheme: None})
		if err != nil {
			t.Fatal(err)
		}
		var c Counters
		m.SetCounters(&c)
		m.RawCols()[7] ^= 1 << 5
		_, cerr := m.CheckAll()
		if es == SED {
			var fe *FaultError
			if !errors.As(cerr, &fe) || fe.Structure != StructElements {
				t.Fatalf("sed: flip not detected: %v", cerr)
			}
			continue
		}
		if cerr != nil {
			t.Fatalf("%v: flip not corrected: %v", es, cerr)
		}
		if c.Corrected() == 0 {
			t.Fatalf("%v: correction not counted", es)
		}
		back, err := m.ToCSR()
		if err != nil {
			t.Fatal(err)
		}
		if back.Cols[7] != src.Cols[7] {
			t.Fatalf("%v: column not restored", es)
		}
	}
}

func TestMatrixSingleFlipValue(t *testing.T) {
	src := testMatrix(t, 6, 6)
	for _, es := range ProtectingSchemes {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: es, RowPtrScheme: None})
		if err != nil {
			t.Fatal(err)
		}
		k := 11
		m.RawVals()[k] = flipFloatBit(m.RawVals()[k], 47)
		_, cerr := m.CheckAll()
		if es == SED {
			if cerr == nil {
				t.Fatal("sed: value flip not detected")
			}
			continue
		}
		if cerr != nil {
			t.Fatalf("%v: value flip not corrected: %v", es, cerr)
		}
		if m.RawVals()[k] != src.Vals[k] {
			t.Fatalf("%v: value not restored: %x vs %x", es,
				m.RawVals()[k], src.Vals[k])
		}
	}
}

func TestMatrixSingleFlipRowPtr(t *testing.T) {
	src := testMatrix(t, 6, 6)
	for _, rs := range ProtectingSchemes {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: None, RowPtrScheme: rs})
		if err != nil {
			t.Fatal(err)
		}
		m.RawRowPtr()[3] ^= 1 << 9
		_, cerr := m.CheckAll()
		if rs == SED {
			var fe *FaultError
			if !errors.As(cerr, &fe) || fe.Structure != StructRowPtr {
				t.Fatalf("sed: rowptr flip not detected: %v", cerr)
			}
			continue
		}
		if cerr != nil {
			t.Fatalf("%v: rowptr flip not corrected: %v", rs, cerr)
		}
		if m.RawRowPtr()[3]&rowPtrMaskFor(rs) != src.RowPtr[3] {
			t.Fatalf("%v: rowptr not restored", rs)
		}
	}
}

func TestMatrixDoubleFlipDetected(t *testing.T) {
	src := testMatrix(t, 6, 6)
	for _, es := range []Scheme{SECDED64, SECDED128} {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: es, RowPtrScheme: None})
		if err != nil {
			t.Fatal(err)
		}
		// Both flips inside one codeword.
		m.RawVals()[8] = flipFloatBit(m.RawVals()[8], 10)
		m.RawVals()[8] = flipFloatBit(m.RawVals()[8], 44)
		_, cerr := m.CheckAll()
		var fe *FaultError
		if !errors.As(cerr, &fe) || fe.Structure != StructElements {
			t.Fatalf("%v: double flip not detected: %v", es, cerr)
		}
	}
}

func TestMatrixCRCRowDoubleFlipCorrected(t *testing.T) {
	src := testMatrix(t, 6, 6)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: CRC32C, RowPtrScheme: None})
	if err != nil {
		t.Fatal(err)
	}
	// Two flips inside one row codeword (row 2 occupies entries 10..15).
	m.RawVals()[11] = flipFloatBit(m.RawVals()[11], 20)
	m.RawCols()[12] ^= 1 << 3
	if _, cerr := m.CheckAll(); cerr != nil {
		t.Fatalf("crc row double flip not corrected: %v", cerr)
	}
	back, err := m.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(src, back) {
		t.Fatal("matrix not restored after crc correction")
	}
}

func TestMatrixRowRange(t *testing.T) {
	src := testMatrix(t, 5, 4)
	for _, rs := range Schemes {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: None, RowPtrScheme: rs})
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < src.Rows(); r++ {
			lo, hi, err := m.RowRange(r)
			if err != nil {
				t.Fatalf("%v: row %d: %v", rs, r, err)
			}
			if lo != int(src.RowPtr[r]) || hi != int(src.RowPtr[r+1]) {
				t.Fatalf("%v: row %d: [%d,%d) want [%d,%d)", rs, r, lo, hi,
					src.RowPtr[r], src.RowPtr[r+1])
			}
		}
		if _, _, err := m.RowRange(-1); err == nil {
			t.Fatalf("%v: negative row accepted", rs)
		}
		if _, _, err := m.RowRange(src.Rows()); err == nil {
			t.Fatalf("%v: row out of range accepted", rs)
		}
	}
}

func TestMatrixStartSweepInterval(t *testing.T) {
	src := testMatrix(t, 4, 4)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: SED, RowPtrScheme: SED})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCheckInterval(4)
	var got []bool
	for i := 0; i < 9; i++ {
		got = append(got, m.StartSweep())
	}
	want := []bool{true, false, false, false, true, false, false, false, true}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep %d: full=%v want %v (interval 4)", i, got[i], want[i])
		}
	}
	// Unprotected matrices never request full checks.
	m2, _ := NewMatrix(src, MatrixOptions{})
	if m2.StartSweep() {
		t.Fatal("unprotected matrix requested a full check")
	}
}

func TestMatrixDiagonal(t *testing.T) {
	src := testMatrix(t, 4, 4)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: SECDED64, RowPtrScheme: SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, src.Rows())
	src.Diagonal(want)
	got := make([]float64, src.Rows())
	if err := m.Diagonal(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("diag %d: %g want %g", i, got[i], want[i])
		}
	}
}

func TestMatrixCRCSurvivesShreddedRowPtr(t *testing.T) {
	// Regression: with CRC32C on both structures, an uncorrectable
	// multi-bit row-pointer corruption must surface as a fault from
	// CheckAll — not crash the element pass with an oversized row (found
	// by the fault-injection campaign).
	src := testMatrix(t, 8, 8)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: CRC32C, RowPtrScheme: CRC32C})
	if err != nil {
		t.Fatal(err)
	}
	// Three flips in one row-pointer codeword: beyond CRC correction.
	m.RawRowPtr()[1] ^= 1 << 2
	m.RawRowPtr()[2] ^= 1 << 9
	m.RawRowPtr()[3] ^= 1 << 17
	_, cerr := m.CheckAll()
	var fe *FaultError
	if !errors.As(cerr, &fe) {
		t.Fatalf("shredded rowptr not reported: %v", cerr)
	}
	// The same with unprotected row pointers: garbage bounds must still
	// not panic the CRC element pass.
	m2, err := NewMatrix(src, MatrixOptions{ElemScheme: CRC32C, RowPtrScheme: None})
	if err != nil {
		t.Fatal(err)
	}
	m2.RawRowPtr()[4] = 0
	m2.RawRowPtr()[5] = uint32(m2.NNZ()) // claims a row spanning everything
	if _, cerr := m2.CheckAll(); cerr == nil {
		t.Fatal("oversized row accepted")
	}
}

func TestMatrixAccessors(t *testing.T) {
	src := testMatrix(t, 4, 3)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: CRC32C, RowPtrScheme: CRC32C})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCheckInterval(8)
	if m.Rows() != 12 || m.Cols() != 12 || m.NNZ() != src.NNZ() {
		t.Fatalf("dims wrong: %d %d %d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.ElemScheme() != CRC32C || m.RowPtrScheme() != CRC32C {
		t.Fatal("schemes wrong")
	}
	if m.CheckInterval() != 8 {
		t.Fatal("interval wrong")
	}
	m.SetCheckInterval(2)
	if m.CheckInterval() != 2 {
		t.Fatal("SetCheckInterval failed")
	}
	if m.MaxRowEntries() != 5 {
		t.Fatalf("MaxRowEntries=%d want 5", m.MaxRowEntries())
	}
}
