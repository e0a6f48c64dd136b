package sell

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// skewed builds a matrix with a strongly non-uniform row-length
// distribution (row r holds 1 + r%9 entries), so sigma-window sorting
// genuinely permutes rows and slices pad unevenly.
func skewed(t *testing.T, rows, cols int) *csr.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var entries []csr.Entry
	for r := 0; r < rows; r++ {
		n := 1 + r%9
		seen := map[int]bool{r % cols: true}
		entries = append(entries, csr.Entry{Row: r, Col: r % cols, Val: 2 + rng.Float64()})
		for len(seen) < n {
			c := rng.Intn(cols)
			if seen[c] {
				continue
			}
			seen[c] = true
			entries = append(entries, csr.Entry{Row: r, Col: c, Val: rng.NormFloat64()})
		}
	}
	m, err := csr.New(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRoundTripToCSR(t *testing.T) {
	for _, s := range core.Schemes {
		plain := skewed(t, 37, 23)
		m, err := NewMatrix(plain, Options{Scheme: s, Sigma: 8})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got, err := m.ToCSR()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got.Rows() != plain.Rows() || got.NNZ() != plain.NNZ() {
			t.Fatalf("%v: round trip %dx%d nnz %d, want nnz %d",
				s, got.Rows(), got.Cols32(), got.NNZ(), plain.NNZ())
		}
		for i := range plain.RowPtr {
			if got.RowPtr[i] != plain.RowPtr[i] {
				t.Fatalf("%v: rowptr %d differs", s, i)
			}
		}
		for k := range plain.Vals {
			if got.Cols[k] != plain.Cols[k] || got.Vals[k] != plain.Vals[k] {
				t.Fatalf("%v: entry %d differs", s, k)
			}
		}
	}
}

func TestSkewedSpMVMatchesReference(t *testing.T) {
	plain := skewed(t, 41, 31)
	xs := make([]float64, plain.Cols32())
	for i := range xs {
		xs[i] = float64(i%17) - 8
	}
	want := make([]float64, plain.Rows())
	plain.SpMV(want, xs)
	for _, s := range core.Schemes {
		for _, workers := range []int{1, 3} {
			m, err := NewMatrix(plain, Options{Scheme: s, Sigma: 8})
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			x := core.VectorFromSlice(xs, core.None)
			dst := core.NewVector(m.Rows(), core.None)
			if err := m.Apply(dst, x, workers); err != nil {
				t.Fatalf("%v workers=%d: %v", s, workers, err)
			}
			got := make([]float64, m.Rows())
			if err := dst.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v workers=%d: row %d got %v want %v", s, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSortingTightensSlices(t *testing.T) {
	plain := skewed(t, 64, 32)
	sorted, err := NewMatrix(plain, Options{Sigma: 32})
	if err != nil {
		t.Fatal(err)
	}
	unsorted, err := NewMatrix(plain, Options{Sigma: core.BlockLen}) // the smallest window: one vector block, two slices
	if err != nil {
		t.Fatal(err)
	}
	if sorted.StoredEntries() >= unsorted.StoredEntries() {
		t.Fatalf("sigma sorting did not reduce padding: %d vs %d",
			sorted.StoredEntries(), unsorted.StoredEntries())
	}
}

func TestSigmaRoundsToSliceMultiple(t *testing.T) {
	m, err := NewMatrix(skewed(t, 10, 10), Options{Sigma: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.Sigma()%core.BlockLen != 0 || m.Sigma()%C != 0 {
		t.Fatalf("sigma %d not a multiple of the vector block and of C", m.Sigma())
	}
}

func TestUncorrectableDoubleFlipDetected(t *testing.T) {
	m, err := NewMatrix(skewed(t, 20, 20), Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	// Two flips in one 96-bit codeword exceed SECDED64.
	m.RawVals()[0] = math.Float64frombits(math.Float64bits(m.RawVals()[0]) ^ 1<<10 ^ 1<<33)
	x := core.NewVector(m.Cols(), core.None)
	x.Fill(1)
	dst := core.NewVector(m.Rows(), core.None)
	err = m.Apply(dst, x, 1)
	var fe *core.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("double flip not detected: %v", err)
	}
	if fe.Scheme != core.SECDED64 || fe.Structure != core.StructElements {
		t.Fatalf("wrong fault classification: %+v", fe)
	}
}

func TestColumnLimitEnforced(t *testing.T) {
	wide, err := csr.New(1, 1<<25, []csr.Entry{{Row: 0, Col: 1<<25 - 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMatrix(wide, Options{Scheme: core.SECDED64}); err == nil {
		t.Fatal("column limit not enforced")
	}
	if _, err := NewMatrix(wide, Options{Scheme: core.None}); err != nil {
		t.Fatalf("unprotected build rejected: %v", err)
	}
}

// TestCRCWidthPadding: CRC32C needs no slice padding. Its codeword is a
// slice chunk, and even a one-column chunk holds the four entries its
// checksum slots need, so single-entry rows are stored as they are — a
// diagonal matrix keeps one stored entry per row — and every slot byte
// still corrects.
func TestCRCWidthPadding(t *testing.T) {
	var entries []csr.Entry
	for r := 0; r < 8; r++ {
		entries = append(entries, csr.Entry{Row: r, Col: r, Val: 1 + float64(r)})
	}
	plain, err := csr.New(8, 8, entries)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatrix(plain, Options{Scheme: core.CRC32C})
	if err != nil {
		t.Fatal(err)
	}
	if m.StoredEntries() != 8 || m.chunks(0) != 1 || m.chunks(1) != 1 {
		t.Fatalf("%d stored entries, %d and %d chunks; want 8, 1, 1", m.StoredEntries(), m.chunks(0), m.chunks(1))
	}
	for k := range m.colIdx {
		for bit := 24; bit < 32; bit++ {
			m.colIdx[k] ^= 1 << bit
			if corrected, err := m.CheckAll(); corrected != 1 || err != nil {
				t.Fatalf("entry %d column bit %d: corrected %d, %v", k, bit, corrected, err)
			}
		}
	}
}
