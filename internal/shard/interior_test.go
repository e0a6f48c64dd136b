package shard

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
)

// TestInteriorIsX: a band's interior is the caller's x itself, decoded
// under x's scheme, not a copy re-encoded under the landing vectors'.
// With x None and the landing vectors reserving mantissa bits (CRC32C,
// SECDED64), every row whose entries all lie in its own band is the
// unsharded product bit for bit, and a pending p·w request is answered
// from the bands' sweeps — x's dot, the one Dot computes — rather than
// left for a Dot after the product. Rows that reach into a halo read the
// halo at the landing vectors' precision.
func TestInteriorIsX(t *testing.T) {
	plain := csr.Laplacian2D(9, 7)
	n := plain.Rows()
	rng := rand.New(rand.NewSource(41))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	for _, f := range op.Formats {
		for _, vs := range []core.Scheme{core.CRC32C, core.SECDED64} {
			t.Run(fmt.Sprintf("%v_%v", f, vs), func(t *testing.T) {
				cfg := op.Config{Scheme: vs, RowPtrScheme: vs}
				o, err := New(plain, Options{Shards: 3, Format: f, VectorScheme: vs, Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				ref, err := op.New(f, plain, cfg)
				if err != nil {
					t.Fatal(err)
				}
				x := core.VectorFromSlice(vals, core.None)
				want, got := core.NewVector(n, core.None), core.NewVector(n, core.None)
				if err := ref.Apply(want, x, 1); err != nil {
					t.Fatal(err)
				}
				var req core.DotRequest
				req.Ask(got, x, o.reduce)
				if err := o.Apply(got, x, 1); err != nil {
					t.Fatal(err)
				}
				dot, answered := req.Take()
				if !answered {
					t.Fatal("p·w left to a Dot after the product")
				}
				if d, err := o.Dot(x, got); err != nil || math.Float64bits(d) != math.Float64bits(dot) {
					t.Fatalf("answered p·w %x, Dot %x (%v)", math.Float64bits(dot), math.Float64bits(d), err)
				}
				w, g := decode(t, want), decode(t, got)
				interior := 0
				for _, b := range o.bands {
					for r := b.r0; r < b.r1; r++ {
						inBand := true
						for k := plain.RowPtr[r]; k < plain.RowPtr[r+1]; k++ {
							c := int(plain.Cols[k])
							inBand = inBand && c >= b.r0 && c < b.r1
						}
						if !inBand {
							if math.Abs(g[r]-w[r]) > 1e-12*math.Max(1, math.Abs(w[r])) {
								t.Fatalf("halo row %d: %g, unsharded %g", r, g[r], w[r])
							}
							continue
						}
						interior++
						if math.Float64bits(g[r]) != math.Float64bits(w[r]) {
							t.Fatalf("row %d reads only its band's interior: %x, unsharded %x", r, math.Float64bits(g[r]), math.Float64bits(w[r]))
						}
					}
				}
				if interior == 0 {
					t.Fatal("no row lies wholly inside its band")
				}
			})
		}
	}
}

// fuzzShardMatrix builds a square n-row matrix from data: a diagonal of
// 4s, then one entry per three bytes — row, column, value — with rows
// and columns taken modulo n, so duplicates, long rows and couplings to
// every band occur. Values are quarters and x holds eighths, so every
// row sum is exact and the sum order of a band's local numbering cannot
// show.
func fuzzShardMatrix(n int, data []byte) (*csr.Matrix, error) {
	entries := make([]csr.Entry, 0, n+len(data)/3)
	for i := 0; i < n; i++ {
		entries = append(entries, csr.Entry{Row: i, Col: i, Val: 4})
	}
	for rest := data; len(rest) >= 3 && len(entries) < n+96; rest = rest[3:] {
		entries = append(entries, csr.Entry{
			Row: int(rest[0]) % n,
			Col: int(rest[1]) % n,
			Val: float64(int8(rest[2])) / 4,
		})
	}
	return csr.New(n, n, entries)
}

// FuzzShardProduct: the sharded product of a fuzzer-chosen small matrix —
// 17 to 64 rows, two or three shards, any format, one scheme for the
// matrix, x and the landing vectors, width 1 or 3 — is the unsharded
// product's words, and a p·w request on each destination column is
// answered, bit for bit the sharded Dot. Nothing panics.
func FuzzShardProduct(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0})
	f.Add([]byte{7, 1, 1, 2, 1, 0, 30, 8, 20, 3, 252, 5, 5, 4})
	f.Add([]byte{47, 1, 2, 3, 1, 63, 0, 255, 0, 63, 1, 17, 40, 128, 40, 17, 127})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		n := 17 + int(data[0])%48
		shards := 2 + int(data[1])%2
		format := op.Formats[int(data[2])%len(op.Formats)]
		s := core.Schemes[int(data[3])%len(core.Schemes)]
		k := 1 + 2*int(data[4]%2)
		plain, err := fuzzShardMatrix(n, data[5:])
		if err != nil {
			t.Fatal(err)
		}
		cfg := op.Config{Scheme: s, RowPtrScheme: s}
		ref, err := op.New(format, plain, cfg)
		if err != nil {
			return
		}
		o, err := New(plain, Options{Shards: shards, Format: format, VectorScheme: s, Config: cfg})
		if err != nil {
			t.Fatalf("%v %v: unsharded builds, sharded does not: %v", format, s, err)
		}
		x := core.NewMultiVector(n, k, s)
		for j := 0; j < k; j++ {
			col := make([]float64, n)
			for i := range col {
				col[i] = float64(int8(data[(i+j)%len(data)])-int8(i)) / 8
			}
			x.Col(j).CopyFrom(col)
		}
		want, got := core.NewMultiVector(n, k, s), core.NewMultiVector(n, k, s)
		reqs := make([]core.DotRequest, k)
		for j := range reqs {
			reqs[j].Ask(got.Col(j), x.Col(j), o.reduce)
		}
		if k == 1 {
			err = ref.Apply(want.Col(0), x.Col(0), 1)
			if err == nil {
				err = o.Apply(got.Col(0), x.Col(0), 1)
			}
		} else {
			err = ref.(core.BatchApplier).ApplyBatch(want, x, 1)
			if err == nil {
				err = o.ApplyBatch(got, x, 1)
			}
		}
		if err != nil {
			t.Fatalf("%v %v shards=%d k=%d: fault-free product: %v", format, s, shards, k, err)
		}
		for j := 0; j < k; j++ {
			if !slices.Equal(got.Col(j).Raw(), want.Col(j).Raw()) {
				t.Fatalf("%v %v shards=%d k=%d col %d: sharded product differs from unsharded", format, s, shards, k, j)
			}
			dot, answered := reqs[j].Take()
			d, err := o.Dot(x.Col(j), got.Col(j))
			if !answered || err != nil || math.Float64bits(d) != math.Float64bits(dot) {
				t.Fatalf("%v %v shards=%d k=%d col %d: p·w %x answered %t, Dot %x (%v)",
					format, s, shards, k, j, math.Float64bits(dot), answered, math.Float64bits(d), err)
			}
		}
	})
}
