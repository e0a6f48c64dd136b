package shard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/mm"
	"abft/internal/op"
	"abft/internal/solvers"
)

// generalMatrix returns an irregular SPD operator — a general sparse
// matrix, not a stencil — routed through a MatrixMarket document, so
// every test here also covers the ingestion path solve requests use.
func generalMatrix(t *testing.T, n int) *csr.Matrix {
	t.Helper()
	var buf bytes.Buffer
	if err := mm.Write(&buf, csr.IrregularSPD(n)); err != nil {
		t.Fatal(err)
	}
	m, err := mm.ReadString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSymmetric(0) {
		t.Fatal("test matrix not symmetric")
	}
	return m
}

func refVector(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*13)%29) - 14 + float64(i%7)/8
	}
	return out
}

// TestClamp: the smallest band is one vector block of core.BlockLen
// rows, so two whole blocks take at most two shards, one block one, and
// two blocks and a partial third three.
func TestClamp(t *testing.T) {
	const b = core.BlockLen
	for _, tc := range []struct{ rows, shards, want int }{
		{100, 1, 1},
		{100, 4, 4},
		{2 * b, 64, 2},
		{b, 3, 1},
		{2*b + 2, 3, 3},
	} {
		if got := Clamp(tc.rows, tc.shards); got != tc.want {
			t.Errorf("Clamp(%d,%d) = %d, want %d", tc.rows, tc.shards, got, tc.want)
		}
	}
}

// TestShardedApplyMatchesReference checks exact SpMV parity of the
// sharded composite against the unprotected reference for every format
// and several shard counts, including counts that clamp.
func TestShardedApplyMatchesReference(t *testing.T) {
	plain := generalMatrix(t, 60)
	xs := refVector(plain.Cols32())
	want := make([]float64, plain.Rows())
	plain.SpMV(want, xs)

	for _, f := range op.Formats {
		for _, shards := range []int{1, 2, 3, 5, 64} {
			t.Run(fmt.Sprintf("%v_shards%d", f, shards), func(t *testing.T) {
				o, err := New(plain, Options{
					Shards: shards,
					Format: f,
					Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
				})
				if err != nil {
					t.Fatal(err)
				}
				if o.Shards() != Clamp(plain.Rows(), shards) {
					t.Fatalf("Shards() = %d, want %d", o.Shards(), Clamp(plain.Rows(), shards))
				}
				x := core.VectorFromSlice(xs, core.None)
				dst := core.NewVector(o.Rows(), core.None)
				for _, workers := range []int{1, 4} {
					if err := o.Apply(dst, x, workers); err != nil {
						t.Fatal(err)
					}
					got := make([]float64, o.Rows())
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
	}
}

// TestShardedCGMatchesUnsharded is the acceptance scenario: a sharded
// solve over a general MatrixMarket operator converges to the same
// solution and residual as the unsharded solve in all three formats.
func TestShardedCGMatchesUnsharded(t *testing.T) {
	plain := generalMatrix(t, 72)
	n := plain.Rows()
	bs := refVector(n)

	for _, f := range op.Formats {
		t.Run(f.String(), func(t *testing.T) {
			cfg := op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}
			single, err := op.New(f, plain, cfg)
			if err != nil {
				t.Fatal(err)
			}
			solve := func(m core.ProtectedMatrix) ([]float64, solvers.Result) {
				x := core.NewVector(n, core.SECDED64)
				b := core.VectorFromSlice(bs, core.SECDED64)
				res, err := solvers.CG(solvers.MatrixOperator{M: m, Workers: 2}, x, b, solvers.Options{Tol: 1e-10})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("no convergence in %d iterations (residual %g)", res.Iterations, res.ResidualNorm)
				}
				out := make([]float64, n)
				if err := x.CopyTo(out); err != nil {
					t.Fatal(err)
				}
				return out, res
			}
			ref, refRes := solve(single)

			sh, err := New(plain, Options{Shards: 3, Format: f, Config: cfg, VectorScheme: core.SECDED64})
			if err != nil {
				t.Fatal(err)
			}
			got, gotRes := solve(sh)
			for i := range ref {
				if math.Abs(got[i]-ref[i]) > 1e-7 {
					t.Fatalf("solution %d differs: %g vs %g", i, got[i], ref[i])
				}
			}
			if gotRes.ResidualNorm > 1e-10 || refRes.ResidualNorm > 1e-10 {
				t.Fatalf("residuals above tolerance: sharded %g, unsharded %g",
					gotRes.ResidualNorm, refRes.ResidualNorm)
			}
		})
	}
}

// TestShardedDiagonalMatchesReference checks Diagonal parity per format.
func TestShardedDiagonalMatchesReference(t *testing.T) {
	plain := generalMatrix(t, 50)
	want := make([]float64, plain.Rows())
	plain.Diagonal(want)
	for _, f := range op.Formats {
		o, err := New(plain, Options{Shards: 4, Format: f,
			Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]float64, o.Rows())
		if err := o.Diagonal(got); err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: diagonal %d: got %v want %v", f, i, got[i], want[i])
			}
		}
	}
}

// TestDotMatchesFlatKernel compares the tree-reduced inner product with
// the flat kernel.
func TestDotMatchesFlatKernel(t *testing.T) {
	plain := generalMatrix(t, 80)
	o, err := New(plain, Options{Shards: 5, Config: op.Config{Scheme: core.SECDED64}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	as := make([]float64, plain.Rows())
	bs := make([]float64, plain.Rows())
	for i := range as {
		as[i] = rng.NormFloat64()
		bs[i] = rng.NormFloat64()
	}
	a := core.VectorFromSlice(as, core.SECDED64)
	b := core.VectorFromSlice(bs, core.SECDED64)
	got, err := o.Dot(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Dot(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("dot %g want %g", got, want)
	}
}

// TestExchangeDetectsHaloFlip strikes a halo entry on both sides of the
// exchange: in the caller's x after the interior decode, where only the
// packs read it, and in shard 0's landing vector after the pack, where
// only shard 0's read does. Each side must detect the flip (SED) or
// correct it in flight (SECDED64) before the value reaches a product:
// the pack's shared read leaves the repair to x's next exclusive reader,
// and the landing vector's one reader commits it.
func TestExchangeDetectsHaloFlip(t *testing.T) {
	plain := generalMatrix(t, 64)
	xs := refVector(plain.Cols32())
	want := make([]float64, plain.Rows())
	plain.SpMV(want, xs)

	for _, s := range []core.Scheme{core.SED, core.SECDED64} {
		for _, side := range []struct {
			suffix, attributed string
			phase              Phase
			// victim returns the struck vector and word: shard 0's first
			// halo entry in x or in its landing vector.
			victim    func(o *Operator, x *core.Vector) (*core.Vector, int)
			committed bool
		}{
			{"", "pack", PhaseScatter, func(o *Operator, x *core.Vector) (*core.Vector, int) {
				return x, int(o.bands[0].haloCols[0])
			}, false},
			{"-landing", "halo of shard 0", PhaseExchange, func(o *Operator, _ *core.Vector) (*core.Vector, int) {
				return o.Local(0), 0
			}, true},
		} {
			name := map[core.Scheme]string{core.SED: "sed-detects", core.SECDED64: "secded64-corrects"}[s] + side.suffix
			t.Run(name, func(t *testing.T) {
				o, err := New(plain, Options{Shards: 4, VectorScheme: s,
					Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				o.SetCounters(&c)
				x := core.VectorFromSlice(xs, s)
				x.SetCounters(&c)
				v, word := side.victim(o, x)
				var clean uint64
				o.SetPhaseHook(func(p Phase) {
					if p == side.phase {
						clean = v.Raw()[word]
						v.Raw()[word] ^= 1 << 33
					}
				})
				dst := core.NewVector(o.Rows(), core.None)
				err = o.Apply(dst, x, 1)
				if s == core.SED {
					var fe *core.FaultError
					if !errors.As(err, &fe) || !strings.Contains(err.Error(), side.attributed) {
						t.Fatalf("halo flip not caught by the %s read: %v", side.attributed, err)
					}
					if c.Detected() == 0 {
						t.Fatal("detection not counted")
					}
					return
				}
				if err != nil {
					t.Fatalf("single flip should be corrected in flight: %v", err)
				}
				if c.Corrected() == 0 {
					t.Fatal("correction not counted")
				}
				if left := v.Raw()[word] != clean; left == side.committed {
					t.Fatalf("flip left in storage: %t, want %t", left, !side.committed)
				}
				got := make([]float64, o.Rows())
				if err := dst.CopyTo(got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if diff := math.Abs(got[i] - want[i]); diff > 1e-9*math.Max(1, math.Abs(want[i])) {
						t.Fatalf("row %d: %g want %g", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestShardedScrubRepairsFlip flips a bit inside one shard's matrix:
// Scrub must repair it and count it, leaving the operator clean.
func TestShardedScrubRepairsFlip(t *testing.T) {
	plain := generalMatrix(t, 56)
	for _, f := range op.Formats {
		o, err := New(plain, Options{Shards: 3, Format: f,
			Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}})
		if err != nil {
			t.Fatal(err)
		}
		var c core.Counters
		o.SetCounters(&c)
		v := o.Shard(1).RawVals()
		v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<40)
		corrected, err := o.Scrub()
		if err != nil || corrected != 1 {
			t.Fatalf("%v: scrub corrected=%d err=%v", f, corrected, err)
		}
		if again, err := o.Scrub(); err != nil || again != 0 {
			t.Fatalf("%v: repair not committed: corrected=%d err=%v", f, again, err)
		}
	}
}

// TestShardedToCSRRoundTrip checks the global decode against the source
// for every format (SECDED64 adds no structural padding, so the decode
// is exact).
func TestShardedToCSRRoundTrip(t *testing.T) {
	plain := generalMatrix(t, 52)
	for _, f := range op.Formats {
		o, err := New(plain, Options{Shards: 3, Format: f,
			Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.ToCSR()
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if got.Rows() != plain.Rows() || got.NNZ() != plain.NNZ() {
			t.Fatalf("%v: decode %dx? nnz %d, want %d nnz %d", f, got.Rows(), got.NNZ(), plain.Rows(), plain.NNZ())
		}
		for i := range plain.Vals {
			if got.Cols[i] != plain.Cols[i] || got.Vals[i] != plain.Vals[i] {
				t.Fatalf("%v: entry %d differs", f, i)
			}
		}
	}
}

// TestApplyValidation covers dimension checking and halo bookkeeping.
func TestApplyValidation(t *testing.T) {
	plain := generalMatrix(t, 40)
	o, err := New(plain, Options{Shards: 2, Config: op.Config{Scheme: core.SECDED64}})
	if err != nil {
		t.Fatal(err)
	}
	rect, err := csr.New(8, 12, []csr.Entry{{Row: 0, Col: 11, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(rect, Options{Shards: 2}); err == nil {
		t.Fatal("rectangular matrix accepted: halo columns beyond the row bands have no owner")
	}
	bad := core.NewVector(3, core.None)
	good := core.NewVector(o.Rows(), core.None)
	if err := o.Apply(good, bad, 1); err == nil {
		t.Fatal("short x accepted")
	}
	if err := o.Apply(bad, good, 1); err == nil {
		t.Fatal("short dst accepted")
	}
	if o.Local(0).Len() == 0 {
		t.Fatal("shard 0 has no halo on a coupled matrix")
	}
	if r0, r1 := o.ShardRange(1); r0%core.BlockLen != 0 || r1 != o.Rows() {
		t.Fatalf("unexpected shard range [%d,%d)", r0, r1)
	}
}

// TestConcurrentApplySharedOperator exercises the service's pattern:
// many jobs solving over one cached sharded operator in shared mode,
// concurrently. Workspaces come from the pool, so the products proceed
// in parallel and every caller gets the exact reference result.
func TestConcurrentApplySharedOperator(t *testing.T) {
	plain := generalMatrix(t, 80)
	o, err := New(plain, Options{Shards: 3,
		Config:       op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
		VectorScheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	var c core.Counters
	o.SetCounters(&c)
	o.SetReadMode(core.ModeShared)

	xs := refVector(plain.Cols32())
	want := make([]float64, plain.Rows())
	plain.SpMV(want, xs)

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := core.VectorFromSlice(xs, core.None)
			dst := core.NewVector(o.Rows(), core.None)
			got := make([]float64, o.Rows())
			for iter := 0; iter < 5; iter++ {
				if err := o.Apply(dst, x, 2); err != nil {
					errs[g] = err
					return
				}
				if err := dst.CopyTo(got); err != nil {
					errs[g] = err
					return
				}
				for i := range want {
					if got[i] != want[i] {
						errs[g] = fmt.Errorf("row %d: got %v want %v", i, got[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestBandRangesBlockAligned pins the invariant the band-parallel
// consumers of the decomposition (the solvers' banded reductions, the
// recovery controller's per-band checkpoints) rely on: band
// boundaries tile [0, rows) contiguously and every interior boundary is
// a multiple of the protection codeword block.
func TestBandRangesBlockAligned(t *testing.T) {
	for _, shards := range []int{2, 3, 7} {
		o, err := New(csr.Laplacian2D(11, 9), Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ranges := o.BandRanges()
		if len(ranges) != o.Shards() {
			t.Fatalf("shards=%d: %d ranges for %d bands", shards, len(ranges), o.Shards())
		}
		next := 0
		for i, r := range ranges {
			if r[0] != next || r[1] <= r[0] {
				t.Fatalf("shards=%d: range %d = %v does not tile from %d", shards, i, r, next)
			}
			if r[0]%core.BlockLen != 0 {
				t.Fatalf("shards=%d: boundary %d not aligned to the codeword block", shards, r[0])
			}
			next = r[1]
		}
		if next != o.Rows() {
			t.Fatalf("shards=%d: ranges end at %d, want %d", shards, next, o.Rows())
		}
	}
}
