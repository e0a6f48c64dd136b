package sell

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
)

// TestSharedFallbackStreamsCorrectedValues drives the verify-then-stream
// protocol through its corrective branch from inside the package: a
// value-bit flip in shared mode makes checkSlice report the slice dirty
// (it may not commit the repair), so applyWindow must stage each lane
// through core.ColElems.DecodeLocal — which, for CRC32C, re-runs the lane
// repair without commit — while the product stays bit-exact against the
// unprotected reference and the stored fault survives for the owner's
// scrub.
func TestSharedFallbackStreamsCorrectedValues(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			t.Run(fmt.Sprintf("%v_shared=%v", s, shared), func(t *testing.T) {
				plain := skewed(t, 41, 31)
				xs := make([]float64, plain.Cols32())
				for i := range xs {
					xs[i] = float64(i%17) - 8
				}
				want := make([]float64, plain.Rows())
				plain.SpMV(want, xs)

				m, err := NewMatrix(plain, Options{Scheme: s, Sigma: 8})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				m.SetCounters(&c)
				m.SetReadMode(mode)

				// Flip one stored value bit per slice, so every slice of
				// the sweep exercises the dirty branch (padding lanes
				// included: the corrupt index may land on a pad entry of
				// a short lane, which the local decode must skip).
				v := m.RawVals()
				for sl := 0; sl < m.Slices(); sl++ {
					lo := m.slicePtr[sl]
					k := lo + (m.slicePtr[sl+1]-lo)/2
					v[k] = math.Float64frombits(math.Float64bits(v[k]) ^ 1<<40)
				}

				x := core.VectorFromSlice(xs, core.None)
				dst := core.NewVector(m.Rows(), core.None)
				if err := m.Apply(dst, x, 1); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, m.Rows())
				if err := dst.CopyTo(got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d: got %v want %v (fallback diverged)", i, got[i], want[i])
					}
				}

				m.SetReadMode(core.ModeExclusive)
				corrected, err := m.Scrub()
				if err != nil {
					t.Fatalf("scrub: %v", err)
				}
				if shared && corrected == 0 {
					t.Fatal("shared Apply committed a repair to storage")
				}
				if !shared && corrected != 0 {
					t.Fatalf("exclusive Apply left %d faults in storage", corrected)
				}
			})
		}
	}
}

// TestSharedFallbackCorruptedColumn flips a stored column-index bit (the
// codeword's data bits, not the value mantissa) in shared mode: the
// local decode must still mask and range-check the corrected column.
func TestSharedFallbackCorruptedColumn(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
		t.Run(s.String(), func(t *testing.T) {
			plain := skewed(t, 41, 31)
			xs := make([]float64, plain.Cols32())
			for i := range xs {
				xs[i] = float64(i%13) - 6
			}
			want := make([]float64, plain.Rows())
			plain.SpMV(want, xs)

			m, err := NewMatrix(plain, Options{Scheme: s, Sigma: 8})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			m.SetCounters(&c)
			m.SetReadMode(core.ModeShared)

			cols := m.RawCols()
			k := len(cols) / 2
			cols[k] ^= 1 << 2

			x := core.VectorFromSlice(xs, core.None)
			dst := core.NewVector(m.Rows(), core.None)
			if err := m.Apply(dst, x, 1); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, m.Rows())
			if err := dst.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
				}
			}
			if c.Corrected() == 0 {
				t.Fatal("no correction recorded for the index flip")
			}
		})
	}
}
