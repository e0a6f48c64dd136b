package csr

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, rows, cols int, entries []Entry) *Matrix {
	t.Helper()
	m, err := New(rows, cols, entries)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewBasic(t *testing.T) {
	m := mustNew(t, 3, 3, []Entry{
		{0, 0, 2}, {0, 1, -1},
		{1, 0, -1}, {1, 1, 2}, {1, 2, -1},
		{2, 1, -1}, {2, 2, 2},
	})
	if m.Rows() != 3 || m.Cols32() != 3 || m.NNZ() != 7 {
		t.Fatalf("dims wrong: %d %d %d", m.Rows(), m.Cols32(), m.NNZ())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []uint32{0, 2, 5, 7}
	for i, w := range want {
		if m.RowPtr[i] != w {
			t.Fatalf("rowptr[%d]=%d want %d", i, m.RowPtr[i], w)
		}
	}
}

func TestNewSortsColumnsWithinRow(t *testing.T) {
	m := mustNew(t, 1, 5, []Entry{{0, 4, 4}, {0, 0, 0}, {0, 2, 2}})
	for k := 1; k < m.NNZ(); k++ {
		if m.Cols[k-1] > m.Cols[k] {
			t.Fatalf("columns not sorted: %v", m.Cols)
		}
	}
	if m.Vals[0] != 0 || m.Vals[1] != 2 || m.Vals[2] != 4 {
		t.Fatalf("values not permuted with columns: %v", m.Vals)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(0, 3, nil); err == nil {
		t.Fatal("accepted zero rows")
	}
	if _, err := New(3, 3, []Entry{{3, 0, 1}}); err == nil {
		t.Fatal("accepted out-of-range row")
	}
	if _, err := New(3, 3, []Entry{{0, -1, 1}}); err == nil {
		t.Fatal("accepted negative column")
	}
}

func TestSpMVAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rows, cols = 17, 13
	dense := make([][]float64, rows)
	var entries []Entry
	for r := range dense {
		dense[r] = make([]float64, cols)
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.3 {
				v := rng.NormFloat64()
				dense[r][c] = v
				entries = append(entries, Entry{r, c, v})
			}
		}
	}
	m := mustNew(t, rows, cols, entries)
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, rows)
	m.SpMV(got, x)
	for r := 0; r < rows; r++ {
		var want float64
		for c := 0; c < cols; c++ {
			want += dense[r][c] * x[c]
		}
		if math.Abs(got[r]-want) > 1e-12 {
			t.Fatalf("row %d: got %g want %g", r, got[r], want)
		}
	}
}

func TestSpMVSumsDuplicates(t *testing.T) {
	m := mustNew(t, 1, 2, []Entry{{0, 1, 2}, {0, 1, 3}})
	dst := make([]float64, 1)
	m.SpMV(dst, []float64{0, 10})
	if dst[0] != 50 {
		t.Fatalf("duplicates not summed: got %g", dst[0])
	}
}

func TestDiagonal(t *testing.T) {
	m := mustNew(t, 3, 3, []Entry{{0, 0, 5}, {1, 1, 6}, {1, 1, 1}, {2, 0, 9}})
	d := make([]float64, 3)
	m.Diagonal(d)
	if d[0] != 5 || d[1] != 7 || d[2] != 0 {
		t.Fatalf("diagonal wrong: %v", d)
	}
}

func TestPadRows(t *testing.T) {
	m := mustNew(t, 3, 3, []Entry{{0, 0, 1}, {1, 0, 2}, {1, 1, 3}, {2, 2, 4}})
	p := m.PadRows(4)
	if p.MinRowEntries() < 4 {
		t.Fatalf("MinRowEntries %d after PadRows(4)", p.MinRowEntries())
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	a, b := make([]float64, 3), make([]float64, 3)
	m.SpMV(a, x)
	p.SpMV(b, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("padding changed operator at %d: %g vs %g", i, a[i], b[i])
		}
	}
	// Original must be untouched.
	if m.NNZ() != 4 {
		t.Fatal("PadRows mutated the receiver")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := mustNew(t, 2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	c := m.Clone()
	c.Vals[0] = 99
	c.Cols[1] = 0
	c.RowPtr[0] = 7
	if m.Vals[0] != 1 || m.Cols[1] != 1 || m.RowPtr[0] != 0 {
		t.Fatal("Clone shares storage with the original")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := mustNew(t, 2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	m.Cols[0] = 5
	if err := m.Validate(); err == nil {
		t.Fatal("validate missed out-of-range column")
	}
	m = mustNew(t, 2, 2, []Entry{{0, 0, 1}, {1, 1, 2}})
	m.RowPtr[1] = 9
	if err := m.Validate(); err == nil {
		t.Fatal("validate missed broken rowptr")
	}
}

func TestFivePointStructure(t *testing.T) {
	const nx, ny = 4, 3
	kx := make([]float64, (nx+1)*ny)
	ky := make([]float64, nx*(ny+1))
	for i := range kx {
		kx[i] = 1
	}
	for i := range ky {
		ky[i] = 1
	}
	// Insulate the boundary faces as TeaLeaf does.
	for j := 0; j < ny; j++ {
		kx[j*(nx+1)] = 0
		kx[j*(nx+1)+nx] = 0
	}
	for i := 0; i < nx; i++ {
		ky[i] = 0
		ky[ny*nx+i] = 0
	}
	m := FivePoint(nx, ny, kx, ky, 0.5, 0.5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 5*nx*ny {
		t.Fatalf("NNZ=%d want %d", m.NNZ(), 5*nx*ny)
	}
	if m.MinRowEntries() != 5 {
		t.Fatalf("MinRowEntries=%d want 5", m.MinRowEntries())
	}
	if !m.IsSymmetric(1e-14) {
		t.Fatal("five-point operator should be symmetric")
	}
	// Row sums of (A - I) must vanish for an insulated interior: A*1 = 1.
	ones := make([]float64, nx*ny)
	for i := range ones {
		ones[i] = 1
	}
	dst := make([]float64, nx*ny)
	m.SpMV(dst, ones)
	for i, v := range dst {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("A*1 != 1 at %d: %g (conservation broken)", i, v)
		}
	}
}

func TestFivePointPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong coefficient lengths")
		}
	}()
	FivePoint(3, 3, make([]float64, 1), make([]float64, 1), 1, 1)
}

func TestLaplacian2DSPDish(t *testing.T) {
	m := Laplacian2D(5, 5)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Fatal("laplacian not symmetric")
	}
	// Diagonal dominance.
	d := make([]float64, m.Rows())
	m.Diagonal(d)
	for r := 0; r < m.Rows(); r++ {
		var off float64
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if int(m.Cols[k]) != r {
				off += math.Abs(m.Vals[k])
			}
		}
		if d[r] < off {
			t.Fatalf("row %d not diagonally dominant: %g < %g", r, d[r], off)
		}
	}
}

func TestIsSymmetricNegative(t *testing.T) {
	m := mustNew(t, 2, 2, []Entry{{0, 1, 1}})
	if m.IsSymmetric(1e-15) {
		t.Fatal("asymmetric matrix reported symmetric")
	}
	n := mustNew(t, 2, 3, nil)
	if n.IsSymmetric(1e-15) {
		t.Fatal("non-square matrix reported symmetric")
	}
}

func TestNewRandomTripletsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		n := rng.Intn(100)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()}
		}
		m, err := New(rows, cols, entries)
		if err != nil {
			return false
		}
		return m.Validate() == nil && m.NNZ() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestNewMatchesStableSort: New, which sorts only a row out of column
// order, stores what a stable sort of every row by column stores —
// duplicates in insertion order — on rows listed sorted, reversed and
// in random order.
func TestNewMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(6)
		var entries []Entry
		for r := 0; r < rows; r++ {
			row := make([]Entry, rng.Intn(8))
			for i := range row {
				row[i] = Entry{r, rng.Intn(cols), float64(len(entries) + i)}
			}
			switch rng.Intn(3) {
			case 0:
				sort.SliceStable(row, func(i, j int) bool { return row[i].Col < row[j].Col })
			case 1:
				sort.SliceStable(row, func(i, j int) bool { return row[i].Col > row[j].Col })
			}
			entries = append(entries, row...)
		}
		want := slices.Clone(entries)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Row != want[j].Row {
				return want[i].Row < want[j].Row
			}
			return want[i].Col < want[j].Col
		})
		m := mustNew(t, rows, cols, entries)
		for k, e := range want {
			if m.Cols[k] != uint32(e.Col) || m.Vals[k] != e.Val {
				t.Fatalf("trial %d entry %d: (%d,%g), want (%d,%g)", trial, k, m.Cols[k], m.Vals[k], e.Col, e.Val)
			}
		}
	}
}
