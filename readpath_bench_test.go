// Microbenchmarks of the verify-then-stream read primitives: the
// row-granular matrix scanner feeding triangular sweeps and the
// block-granular vector reads feeding the preconditioners and the shard
// pack/unpack path. Each benchmark pairs every protected scheme against
// the unprotected stream over the same storage, so the verified-read
// overhead — the quantity the batch-verify restructuring amortises —
// reads off directly as the ns/op ratio.
package abft_test

import (
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// BenchmarkRowScanner sweeps every row of a 128x128 five-point operator
// through the verified row stream (the symmetric Gauss-Seidel access
// pattern), per scheme. The scanner batch-verifies each row once and
// streams it unguarded, so protected sweeps should sit close to the
// "none" bar; the scanner is reset each sweep to re-verify from cold.
func BenchmarkRowScanner(b *testing.B) {
	plain := csr.Laplacian2D(128, 128)
	for _, scheme := range core.Schemes {
		b.Run(scheme.String(), func(b *testing.B) {
			m, err := core.NewMatrix(plain, core.MatrixOptions{ElemScheme: scheme, RowPtrScheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			s := m.NewRowScanner()
			var sink float64
			b.SetBytes(int64(plain.NNZ() * 12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Reset()
				for r := 0; r < plain.Rows(); r++ {
					if err := s.Row(r, func(col int, val float64) { sink += val }); err != nil {
						b.Fatal(err)
					}
				}
			}
			_ = sink
		})
	}
}

// BenchmarkReadBlocks streams a protected vector through Vector.Read in
// each read mode, per scheme:
//
//	nocheck  — one block per Read, unverified: the unguarded floor
//	verified — one block per Read, exclusive (commits repairs)
//	shared   — one block per Read, shared (no write-back)
//	batched  — 64 blocks per Read, exclusive: the shard pack/unpack and
//	           preconditioner access pattern
func BenchmarkReadBlocks(b *testing.B) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	for _, s := range core.Schemes {
		vec := core.VectorFromSlice(data, s)
		name := s.String()
		nb := vec.Blocks()
		batch := make([]float64, 64*core.BlockLen)
		for _, arm := range []struct {
			name string
			mode core.ReadMode
			span int
		}{
			{"nocheck", core.ModeUnverified, 1},
			{"verified", core.ModeExclusive, 1},
			{"shared", core.ModeShared, 1},
			{"batched", core.ModeExclusive, 64},
		} {
			b.Run(name+"/"+arm.name, func(b *testing.B) {
				b.SetBytes(n * 8)
				for i := 0; i < b.N; i++ {
					for j := 0; j < nb; j += arm.span {
						hi := min(j+arm.span, nb)
						if err := vec.Read(j, hi, batch[:(hi-j)*core.BlockLen], arm.mode); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
