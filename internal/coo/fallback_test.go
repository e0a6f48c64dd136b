package coo

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
)

// TestCOOSharedFallback drives the verify-then-stream protocol through
// its corrective branch from inside the package: a value-bit flip in
// shared mode fails the chunk's clean test and makes its committing
// check report it dirty (it may not commit the repair), so the chunk's
// cold path (chunkSweep.Cold) must stage it (triplets.stage: a copy
// repaired by the committing check) and stream the stage through the
// same scatter, while the product stays bit-exact against the
// unprotected reference and the stored fault survives for the owner's
// scrub.
func TestCOOSharedFallback(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			t.Run(fmt.Sprintf("%v_shared=%v", s, shared), func(t *testing.T) {
				plain := buildSrc(t)
				xs := make([]float64, plain.Cols32())
				for i := range xs {
					xs[i] = float64(i%11) - 5
				}
				want := make([]float64, plain.Rows())
				plain.SpMV(want, xs)

				m, err := NewMatrix(plain, Options{Scheme: s})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				m.SetCounters(&c)
				m.SetReadMode(mode)

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
							t.Fatalf("workers=%d row %d: got %v want %v (fallback diverged)",
								workers, i, got[i], want[i])
						}
					}
				}
				if c.Corrected() == 0 {
					t.Fatal("no correction recorded for the injected flip")
				}

				m.SetReadMode(core.ModeExclusive)
				corrected, err := m.CheckAll()
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
