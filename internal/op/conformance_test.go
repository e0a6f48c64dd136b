package op

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// testMatrix builds a five-point operator with asymmetric dimensions in
// the row-length distribution (corner rows have 3 entries, edges 4,
// interior 5), exercising slice padding and row sorting.
func testMatrix(t *testing.T) *csr.Matrix {
	t.Helper()
	return csr.Laplacian2D(12, 9)
}

// refVector builds a deterministic, structure-rich source vector.
func refVector(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*13)%29) - 14 + float64(i%7)/8
	}
	return out
}

func forEachPair(t *testing.T, fn func(t *testing.T, f Format, s core.Scheme)) {
	t.Helper()
	for _, f := range Formats {
		for _, s := range core.Schemes {
			t.Run(fmt.Sprintf("%v_%v", f, s), func(t *testing.T) { fn(t, f, s) })
		}
	}
}

// TestConformanceSpMVMatchesReference asserts that every format x scheme
// pair reproduces the unprotected CSR reference SpMV bit-for-bit: matrix
// values are stored exactly under every scheme, padding contributes
// exact zeros, and each row is summed in column order.
func TestConformanceSpMVMatchesReference(t *testing.T) {
	forEachPair(t, func(t *testing.T, f Format, s core.Scheme) {
		plain := testMatrix(t)
		xs := refVector(plain.Cols32())
		want := make([]float64, plain.Rows())
		plain.SpMV(want, xs)

		m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
		if err != nil {
			t.Fatal(err)
		}
		if m.Rows() != plain.Rows() || m.Cols() != plain.Cols32() {
			t.Fatalf("dimensions %dx%d, want %dx%d", m.Rows(), m.Cols(), plain.Rows(), plain.Cols32())
		}
		for _, workers := range []int{1, 4} {
			x := core.VectorFromSlice(xs, core.None)
			dst := core.NewVector(m.Rows(), core.None)
			if err := m.Apply(dst, x, workers); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got := make([]float64, m.Rows())
			if err := dst.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d row %d: got %v want %v", workers, i, got[i], want[i])
				}
			}
		}
	})
}

// TestConformanceDiagonalMatchesReference asserts Diagonal equality with
// the unprotected reference for every pair.
func TestConformanceDiagonalMatchesReference(t *testing.T) {
	forEachPair(t, func(t *testing.T, f Format, s core.Scheme) {
		plain := testMatrix(t)
		want := make([]float64, plain.Rows())
		plain.Diagonal(want)

		m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, m.Rows())
		if err := m.Diagonal(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("diagonal %d: got %v want %v", i, got[i], want[i])
			}
		}
	})
}

// flipValueBit flips one mid-mantissa bit of the first stored value — a
// position every scheme protects, in an entry that is never padding.
func flipValueBit(m core.ProtectedMatrix) {
	v := m.RawVals()
	v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<40)
}

// TestConformanceSingleFlipHandled asserts the paper's capability floor
// through the Operator path for every format x scheme pair: one bit flip
// in the element stream is detected by SED and corrected by
// SECDED64/SECDED128/CRC32C, both via Scrub and via Apply.
func TestConformanceSingleFlipHandled(t *testing.T) {
	forEachPair(t, func(t *testing.T, f Format, s core.Scheme) {
		if s == core.None {
			t.Skip("baseline has no protection")
		}
		for _, target := range []string{"value", "col"} {
			plain := testMatrix(t)
			m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			m.SetCounters(&c)
			if target == "value" {
				flipValueBit(m)
			} else {
				m.RawCols()[0] ^= 1 << 5 // a data bit under every layout
			}

			x := core.VectorFromSlice(refVector(m.Cols()), core.None)
			dst := core.NewVector(m.Rows(), core.None)
			applyErr := m.Apply(dst, x, 1)

			if s == core.SED {
				var fe *core.FaultError
				if applyErr == nil || !errors.As(applyErr, &fe) {
					t.Fatalf("%s flip: SED did not detect: %v", target, applyErr)
				}
				if c.Detected() == 0 {
					t.Fatalf("%s flip: detection not counted", target)
				}
				continue
			}
			if applyErr != nil {
				t.Fatalf("%s flip: correctable fault surfaced as error: %v", target, applyErr)
			}
			if c.Corrected() == 0 {
				t.Fatalf("%s flip: no correction recorded", target)
			}
			// Storage must have been repaired in place: a scrub finds a
			// clean matrix.
			corrected, err := m.Scrub()
			if err != nil {
				t.Fatalf("%s flip: scrub after repair: %v", target, err)
			}
			if corrected != 0 {
				t.Fatalf("%s flip: repair was not committed (%d late corrections)", target, corrected)
			}
			// And the repaired product matches the reference exactly.
			want := make([]float64, plain.Rows())
			plain.SpMV(want, refVector(plain.Cols32()))
			got := make([]float64, m.Rows())
			if err := dst.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s flip: row %d diverged after correction", target, i)
				}
			}
		}
	})
}

// TestConformanceScrubDetectsAndCorrects drives the scrub path directly:
// a flip must never survive a Scrub silently. The untracked rows pin the
// scrub as a read-side API: it reports its correction count without ever
// attaching an accumulator to the operator.
func TestConformanceScrubDetectsAndCorrects(t *testing.T) {
	forEachPair(t, func(t *testing.T, f Format, s core.Scheme) {
		if s == core.None {
			t.Skip("baseline has no protection")
		}
		for _, tracked := range []bool{true, false} {
			plain := testMatrix(t)
			m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
			if err != nil {
				t.Fatal(err)
			}
			if tracked {
				m.SetCounters(&core.Counters{})
			}
			flipValueBit(m)
			corrected, scrubErr := m.Scrub()
			if s == core.SED {
				if scrubErr == nil {
					t.Fatalf("tracked=%v: SED scrub missed the flip", tracked)
				}
				continue
			}
			if scrubErr != nil || corrected != 1 {
				t.Fatalf("tracked=%v: scrub: corrected=%d err=%v", tracked, corrected, scrubErr)
			}
			snap := m.CounterSnapshot()
			if tracked && snap.Corrected != 1 {
				t.Fatalf("counters did not record the correction: %+v", snap)
			}
			if !tracked && snap != (core.CounterSnapshot{}) {
				t.Fatalf("untracked scrub left counters behind: %+v", snap)
			}
			if cm, ok := m.(*core.Matrix); ok && !tracked && cm.Counters() != nil {
				t.Fatal("untracked scrub attached an accumulator to the matrix")
			}
		}
	})
}

// TestConformanceParseFormatRoundTrip covers the registry names.
func TestConformanceParseFormatRoundTrip(t *testing.T) {
	for _, f := range Formats {
		got, err := ParseFormat(f.String())
		if err != nil || got != f {
			t.Fatalf("round trip %v: %v %v", f, got, err)
		}
	}
	if _, err := ParseFormat("bogus"); err == nil {
		t.Fatal("bogus format accepted")
	}
}
