package op_test

import (
	"encoding/binary"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
)

// fuzzMatrix reads a small sparse matrix from data: one byte each for
// the row and column counts (1–16), then up to 64 entries of ten bytes —
// row, column, and the value's raw IEEE-754 bits, so NaN payloads, signed
// zeros, infinities and subnormals all occur. Rows and columns are taken
// modulo the shape, so duplicates, empty rows and dense rows occur too.
func fuzzMatrix(data []byte) (*csr.Matrix, error) {
	if len(data) < 2 {
		return nil, nil
	}
	rows, cols := 1+int(data[0]%16), 1+int(data[1]%16)
	var entries []csr.Entry
	for rest := data[2:]; len(rest) >= 10 && len(entries) < 64; rest = rest[10:] {
		entries = append(entries, csr.Entry{
			Row: int(rest[0]) % rows,
			Col: int(rest[1]) % cols,
			Val: math.Float64frombits(binary.LittleEndian.Uint64(rest[2:10])),
		})
	}
	return csr.New(rows, cols, entries)
}

// FuzzProtectRoundTrip: protecting a matrix in any format under any
// element scheme and decoding it again (New, then ToCSR) gives back the
// input, bit for bit — or New rejects the matrix with an error. Nothing
// panics. The one documented difference is CSR under CRC32C, which
// stores every row with at least four entries (explicit zeros,
// csr.PadRows) and decodes what it stores.
func FuzzProtectRoundTrip(f *testing.F) {
	f.Add([]byte{3, 3,
		0, 0, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, // (0,0) = 1
		1, 2, 0, 0, 0, 0, 0, 0, 0, 0x80, // (1,2) = -0
		1, 2, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f, // (1,2) = NaN, a duplicate
	})
	f.Add([]byte{15, 0})
	dense := []byte{4, 4}
	for i := 0; i < 20; i++ {
		dense = append(dense, byte(i/4), byte(i), byte(i), 1, 2, 3, 4, 5, 6, 0x40)
	}
	f.Add(dense)
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := fuzzMatrix(data)
		if src == nil || err != nil {
			return
		}
		for _, format := range op.Formats {
			for _, s := range []core.Scheme{core.None, core.SED, core.SECDED64, core.CRC32C} {
				m, err := op.New(format, src, op.Config{Scheme: s, RowPtrScheme: s})
				if err != nil {
					continue
				}
				got, err := m.(interface{ ToCSR() (*csr.Matrix, error) }).ToCSR()
				if err != nil {
					t.Fatalf("%v/%v: ToCSR of a fault-free matrix: %v", format, s, err)
				}
				want := src
				if format == op.CSR && s == core.CRC32C && src.MinRowEntries() < 4 {
					want = sorted(t, src.PadRows(4))
				}
				if msg := csrDiff(want, got); msg != "" {
					t.Fatalf("%v/%v: round trip differs: %s", format, s, msg)
				}
			}
		}
	})
}

// sorted returns m with every row's entries in column order, the order
// ToCSR decodes them in (csr.New's stable sort keeps duplicates as
// stored).
func sorted(t *testing.T, m *csr.Matrix) *csr.Matrix {
	var entries []csr.Entry
	for r := 0; r < m.Rows(); r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			entries = append(entries, csr.Entry{Row: r, Col: int(m.Cols[k]), Val: m.Vals[k]})
		}
	}
	out, err := csr.New(m.Rows(), m.Cols32(), entries)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// csrDiff describes the first difference between two CSR matrices, with
// values compared by their bits; "" when they are equal.
func csrDiff(want, got *csr.Matrix) string {
	if got.Rows() != want.Rows() || got.Cols32() != want.Cols32() || got.NNZ() != want.NNZ() {
		return "shape or entry count"
	}
	for i, p := range want.RowPtr {
		if got.RowPtr[i] != p {
			return "row pointers"
		}
	}
	for k := range want.Vals {
		if got.Cols[k] != want.Cols[k] || math.Float64bits(got.Vals[k]) != math.Float64bits(want.Vals[k]) {
			return "entries"
		}
	}
	return ""
}
