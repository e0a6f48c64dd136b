package shard

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/op"
)

// TestShardedVerifyThenStreamFallback is the sharded counterpart of the
// op-level fallback conformance: a codeword corrupted inside one shard's
// batch-verified block must degrade to the corrective per-element decode
// (shared mode) or be repaired in place (exclusive mode), and in both
// modes the composite product stays bit-exact against the unprotected
// reference.
func TestShardedVerifyThenStreamFallback(t *testing.T) {
	for _, f := range op.Formats {
		for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
			for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
				shared := mode == core.ModeShared
				t.Run(fmt.Sprintf("%v_%v_shared=%v", f, s, shared), func(t *testing.T) {
					plain := generalMatrix(t, 60)
					xs := refVector(plain.Cols32())
					want := make([]float64, plain.Rows())
					plain.SpMV(want, xs)

					o, err := New(plain, Options{
						Shards: 3,
						Format: f,
						Config: op.Config{Scheme: s, RowPtrScheme: s},
					})
					if err != nil {
						t.Fatal(err)
					}
					var c core.Counters
					o.SetCounters(&c)
					o.SetReadMode(mode)

					// Flip a mid-mantissa value bit in the middle of shard
					// 1's element stream: inside a batch-verified block of
					// an interior band.
					v := o.Shard(1).RawVals()
					k := len(v) / 2
					v[k] = math.Float64frombits(math.Float64bits(v[k]) ^ 1<<40)

					x := core.VectorFromSlice(xs, core.None)
					dst := core.NewVector(o.Rows(), core.None)
					if err := o.Apply(dst, x, 3); err != nil {
						t.Fatal(err)
					}
					got := make([]float64, o.Rows())
					if err := dst.CopyTo(got); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("row %d: got %v want %v (fallback diverged from reference)",
								i, got[i], want[i])
						}
					}
					if c.Corrected() == 0 {
						t.Fatal("no correction recorded for the injected flip")
					}

					o.SetReadMode(core.ModeExclusive)
					corrected, err := o.Scrub()
					if err != nil {
						t.Fatalf("scrub: %v", err)
					}
					if shared && corrected == 0 {
						t.Fatal("shared Apply committed a repair to shard storage")
					}
					if !shared && corrected != 0 {
						t.Fatalf("exclusive Apply left the fault in shard storage (%d late corrections)", corrected)
					}
				})
			}
		}
	}
}
