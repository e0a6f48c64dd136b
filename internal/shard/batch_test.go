package shard

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/op"
)

// batchInputs builds k deterministic columns plus an empty per-column
// reference slot for the caller to fill from the unprotected source.
func batchInputs(t *testing.T, n, k int) (x *core.MultiVector, want [][]float64) {
	t.Helper()
	cols := make([]*core.Vector, k)
	for j := 0; j < k; j++ {
		xs := refVector(n)
		for i := range xs {
			xs[i] += float64(j) / 4
		}
		cols[j] = core.VectorFromSlice(xs, core.None)
	}
	mv, err := core.WrapMultiVector(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return mv, make([][]float64, k)
}

// TestShardedApplyBatchMatchesApply: the batched bulk-synchronous
// pipeline — scatter, k-column halo exchange, per-format batched local
// kernels, gather — is bit-identical to k independent Apply calls for
// every local format. A second pass over the same operator reuses the
// pooled batch workspace.
func TestShardedApplyBatchMatchesApply(t *testing.T) {
	for _, f := range op.Formats {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v_workers=%d", f, workers), func(t *testing.T) {
				plain := generalMatrix(t, 30)
				const k = 3
				x, want := batchInputs(t, int(plain.Cols32()), k)
				for j := 0; j < k; j++ {
					xs := make([]float64, plain.Cols32())
					if err := x.Col(j).CopyTo(xs); err != nil {
						t.Fatal(err)
					}
					want[j] = make([]float64, plain.Rows())
					plain.SpMV(want[j], xs)
				}

				o, err := New(plain, Options{
					Shards: 3,
					Format: f,
					Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
				})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				o.SetCounters(&c)

				// Two passes: the second pulls the pooled workspace back
				// out instead of allocating a fresh one.
				for pass := 0; pass < 2; pass++ {
					dst := core.NewMultiVector(o.Rows(), k, core.None)
					if err := o.ApplyBatch(dst, x, workers); err != nil {
						t.Fatalf("pass %d: %v", pass, err)
					}
					got := make([]float64, o.Rows())
					for j := 0; j < k; j++ {
						if err := dst.Col(j).CopyTo(got); err != nil {
							t.Fatal(err)
						}
						for i := range want[j] {
							if got[i] != want[j][i] {
								t.Fatalf("pass %d col %d row %d: got %v want %v (batched product diverged)",
									pass, j, i, got[i], want[j][i])
							}
						}
					}
				}
				if c.Checks() == 0 {
					t.Fatal("batched pipeline recorded no verified reads")
				}
			})
		}
	}
}

// TestShardedApplyBatchFallback is the batched counterpart of the
// sharded verify-then-stream conformance: a codeword corrupted inside
// one shard's batch-verified block must degrade to the corrective
// per-element decode (shared mode) or be repaired in place (exclusive
// mode), and in both modes every column of the composite batched
// product stays bit-exact against the unprotected reference.
func TestShardedApplyBatchFallback(t *testing.T) {
	for _, f := range op.Formats {
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			t.Run(fmt.Sprintf("%v_shared=%v", f, shared), func(t *testing.T) {
				plain := generalMatrix(t, 30)
				const k = 3
				x, want := batchInputs(t, int(plain.Cols32()), k)
				for j := 0; j < k; j++ {
					xs := make([]float64, plain.Cols32())
					if err := x.Col(j).CopyTo(xs); err != nil {
						t.Fatal(err)
					}
					want[j] = make([]float64, plain.Rows())
					plain.SpMV(want[j], xs)
				}

				o, err := New(plain, Options{
					Shards: 3,
					Format: f,
					Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
				})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				o.SetCounters(&c)
				o.SetReadMode(mode)

				v := o.Shard(1).RawVals()
				i := len(v) / 2
				v[i] = math.Float64frombits(math.Float64bits(v[i]) ^ 1<<40)

				dst := core.NewMultiVector(o.Rows(), k, core.None)
				if err := o.ApplyBatch(dst, x, 3); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, o.Rows())
				for j := 0; j < k; j++ {
					if err := dst.Col(j).CopyTo(got); err != nil {
						t.Fatal(err)
					}
					for r := range want[j] {
						if got[r] != want[j][r] {
							t.Fatalf("col %d row %d: got %v want %v (fallback diverged from reference)",
								j, r, got[r], want[j][r])
						}
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
					t.Fatal("shared ApplyBatch committed a repair to shard storage")
				}
				if !shared && corrected != 0 {
					t.Fatalf("exclusive ApplyBatch left the fault in shard storage (%d late corrections)", corrected)
				}
			})
		}
	}
}

// TestShardedApplyBatchShapeErrors: dimension and width mismatches are
// rejected before the pipeline starts.
func TestShardedApplyBatchShapeErrors(t *testing.T) {
	plain := generalMatrix(t, 20)
	o, err := New(plain, Options{Shards: 2, Config: op.Config{Scheme: core.SECDED64}})
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewMultiVector(int(plain.Cols32()), 2, core.None)
	short := core.NewMultiVector(o.Rows()+4, 2, core.None)
	if err := o.ApplyBatch(short, x, 1); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	wide := core.NewMultiVector(o.Rows(), 3, core.None)
	if err := o.ApplyBatch(wide, x, 1); err == nil {
		t.Fatal("width mismatch accepted")
	}
}
