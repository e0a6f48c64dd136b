// Sharded-operator conformance: the row-partitioned composite of
// internal/shard must be observationally identical to the single
// operator it partitions, for every registered storage format — the
// same Apply results, the same Diagonal, and the same scrub behaviour
// under a flip. The suite lives here, next to the single-operator
// conformance tests, because it pins the same contract: a shard count
// is a deployment knob, never a semantic one.
package op_test

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
)

func shardTestMatrix() *csr.Matrix {
	return csr.Laplacian2D(12, 9)
}

func shardRefVector(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*13)%29) - 14 + float64(i%7)/8
	}
	return out
}

func forEachFormatSharded(t *testing.T, fn func(t *testing.T, f op.Format, shards int)) {
	t.Helper()
	for _, f := range op.Formats {
		for _, shards := range []int{2, 3, 7} {
			t.Run(fmt.Sprintf("%v_shards%d", f, shards), func(t *testing.T) { fn(t, f, shards) })
		}
	}
}

// TestShardedConformanceApplyParity: sharded Apply must reproduce the
// single operator's Apply bit-for-bit for every format and shard count
// (both are exact against the unprotected reference, so they must also
// agree with each other).
func TestShardedConformanceApplyParity(t *testing.T) {
	forEachFormatSharded(t, func(t *testing.T, f op.Format, shards int) {
		plain := shardTestMatrix()
		cfg := op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}
		single, err := op.New(f, plain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := shard.New(plain, shard.Options{Shards: shards, Format: f, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if sharded.Rows() != single.Rows() || sharded.Cols() != single.Cols() {
			t.Fatalf("dimensions %dx%d, want %dx%d",
				sharded.Rows(), sharded.Cols(), single.Rows(), single.Cols())
		}
		xs := shardRefVector(plain.Cols32())
		apply := func(m core.ProtectedMatrix, workers int) []float64 {
			x := core.VectorFromSlice(xs, core.None)
			dst := core.NewVector(m.Rows(), core.None)
			if err := m.Apply(dst, x, workers); err != nil {
				t.Fatal(err)
			}
			out := make([]float64, m.Rows())
			if err := dst.CopyTo(out); err != nil {
				t.Fatal(err)
			}
			return out
		}
		want := apply(single, 1)
		for _, workers := range []int{1, 4} {
			got := apply(sharded, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d row %d: sharded %v, single %v", workers, i, got[i], want[i])
				}
			}
		}
	})
}

// TestShardedConformanceDiagonalParity: the sharded Diagonal must equal
// the single operator's.
func TestShardedConformanceDiagonalParity(t *testing.T) {
	forEachFormatSharded(t, func(t *testing.T, f op.Format, shards int) {
		plain := shardTestMatrix()
		cfg := op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}
		single, err := op.New(f, plain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := shard.New(plain, shard.Options{Shards: shards, Format: f, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, single.Rows())
		if err := single.Diagonal(want); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, sharded.Rows())
		if err := sharded.Diagonal(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("diagonal %d: sharded %v, single %v", i, got[i], want[i])
			}
		}
	})
}

// TestShardedConformanceScrubParity: a flip inside any shard must be
// scrubbed exactly as the single operator scrubs it — corrected and
// committed under SECDED64, with nothing left for a second pass.
func TestShardedConformanceScrubParity(t *testing.T) {
	forEachFormatSharded(t, func(t *testing.T, f op.Format, shards int) {
		plain := shardTestMatrix()
		sharded, err := shard.New(plain, shard.Options{Shards: shards, Format: f,
			Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}})
		if err != nil {
			t.Fatal(err)
		}
		var c core.Counters
		sharded.SetCounters(&c)
		// One flip per shard: the patrol must repair them all in one pass.
		for s := 0; s < sharded.Shards(); s++ {
			v := sharded.Shard(s).RawVals()
			v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<40)
		}
		corrected, err := sharded.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		if corrected != sharded.Shards() {
			t.Fatalf("corrected %d flips, want %d", corrected, sharded.Shards())
		}
		if again, err := sharded.Scrub(); err != nil || again != 0 {
			t.Fatalf("repairs not committed: corrected=%d err=%v", again, err)
		}
		if c.Corrected() == 0 {
			t.Fatal("corrections not counted")
		}
	})
}
