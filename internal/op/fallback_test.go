package op

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
)

// TestVerifyThenStreamFallback corrupts a codeword inside a
// batch-verified block and asserts the fast read path degrades
// correctly for every format in both ownership modes:
//
//   - exclusive (the default): the batch verify repairs storage in
//     place, so the block streams clean and a later scrub finds nothing;
//   - shared (ModeShared): the verify must not write storage, so the
//     dirty block is staged (decoded into locals, correction applied
//     there) and the stage streamed, and the stored fault survives for
//     the owner's scrub.
//
// In both modes the product must be bit-exact against the unprotected
// reference — the fallback is a slower decode of the same values, never
// a different computation.
func TestVerifyThenStreamFallback(t *testing.T) {
	for _, f := range Formats {
		for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
			for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
				shared := mode == core.ModeShared
				t.Run(fmt.Sprintf("%v_%v_shared=%v", f, s, shared), func(t *testing.T) {
					plain := testMatrix(t)
					xs := refVector(plain.Cols32())
					want := make([]float64, plain.Rows())
					plain.SpMV(want, xs)

					m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
					if err != nil {
						t.Fatal(err)
					}
					var c core.Counters
					m.SetCounters(&c)
					m.SetReadMode(mode)

					// One mid-mantissa flip in the middle of the element
					// stream: inside some batch-verified block, not at a
					// block boundary.
					v := m.RawVals()
					k := len(v) / 2
					v[k] = math.Float64frombits(math.Float64bits(v[k]) ^ 1<<40)

					for _, workers := range []int{1, 3} {
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
								t.Fatalf("workers=%d row %d: got %v want %v (fallback diverged from reference)",
									workers, i, got[i], want[i])
							}
						}
					}
					if c.Corrected() == 0 {
						t.Fatal("no correction recorded for the injected flip")
					}

					// The commit discipline distinguishes the modes: an
					// exclusive Apply repairs storage, a shared one leaves
					// the fault for the owning scrub.
					m.SetReadMode(core.ModeExclusive)
					corrected, err := m.Scrub()
					if err != nil {
						t.Fatalf("scrub: %v", err)
					}
					if shared && corrected == 0 {
						t.Fatal("shared Apply committed a repair to storage")
					}
					if !shared && corrected != 0 {
						t.Fatalf("exclusive Apply left the fault in storage (%d late corrections)", corrected)
					}
				})
			}
		}
	}
}
