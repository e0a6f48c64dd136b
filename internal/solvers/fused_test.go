package solvers

import (
	"testing"

	"abft/internal/core"
	"abft/internal/op"
	"abft/internal/shard"
)

// bandedFake is a wrapper with the BandedOperator capability — the shape
// of the sharded composite — so the engine must take the banded fuse
// path (band decomposition + tree reduction in the fused kernels).
type bandedFake struct {
	MatrixOperator
	bands [][2]int
}

func (o bandedFake) Dot(a, b *core.Vector) (float64, error) { return core.Dot(a, b, 1) }
func (o bandedFake) BandRanges() [][2]int                   { return o.bands }

// wrapperFake is a wrapper without band structure (the shape of
// faults.InjectingOperator): the engine does not look through it, so it
// reduces flat and fuses flat.
type wrapperFake struct {
	MatrixOperator
}

// TestFusePathsSolve drives CG through the engine's fuse decisions —
// flat fuse (plain matrix operator), banded fuse (BandedOperator), and
// a non-banded wrapper ("fallback"), which fuses flat — and checks each
// against the dense solve. A non-banded wrapper around a sharded
// operator ("sharded fallback") also reduces flat: the operator cannot
// answer the engine's flat p . w request from its bands, so the engine
// runs the flat dot after the product. The bit-level equivalence of fused
// and unfused tails is pinned by the core and op conformance suites; this
// test pins that every decision path produces a correct converged solve.
func TestFusePathsSolve(t *testing.T) {
	a, xTrue, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	n := a.Rows()
	so, err := shard.New(a, shard.Options{Shards: 3, Format: op.CSR,
		Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}, VectorScheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	operators := map[string]Operator{
		"flat":             MatrixOperator{M: m},
		"banded":           bandedFake{MatrixOperator{M: m}, [][2]int{{0, 16}, {16, 40}, {40, n}}},
		"fallback":         wrapperFake{MatrixOperator{M: m}},
		"sharded fallback": wrapperFake{MatrixOperator{M: so}},
	}
	for name, op := range operators {
		t.Run(name, func(t *testing.T) {
			x := core.NewVector(n, core.SECDED64)
			bv := core.VectorFromSlice(b, core.SECDED64)
			res, err := CG(op, x, bv, Options{Tol: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("CG did not converge: %+v", res)
			}
			got := make([]float64, n)
			if err := x.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got, xTrue); d > 1e-7 {
				t.Fatalf("CG vs truth: max diff %g", d)
			}
		})
	}
}

// TestFusedTailFaultPropagation corrupts a live vector with an
// uncorrectable double flip and checks the detected fault surfaces
// through the fused tail — of a plain operator and of a non-banded
// wrapper ("fallback") alike — for the update and the residual-formation
// idiom.
func TestFusedTailFaultPropagation(t *testing.T) {
	a, _, b := spdSystem(t, 6, 6)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	n := a.Rows()
	vecs := func() (x, p, r, q *core.Vector) {
		x = core.VectorFromSlice(b, core.SECDED64)
		p = core.VectorFromSlice(b, core.SECDED64)
		r = core.VectorFromSlice(b, core.SECDED64)
		q = core.VectorFromSlice(b, core.SECDED64)
		return
	}
	for name, op := range map[string]Operator{
		"fused":    MatrixOperator{M: m},
		"fallback": wrapperFake{MatrixOperator{M: m}},
	} {
		t.Run(name, func(t *testing.T) {
			x0 := core.NewVector(n, core.SECDED64)
			bv := core.VectorFromSlice(b, core.SECDED64)
			e, err := newEngine("cg", op, x0, bv, Options{Tol: 1e-8})
			if err != nil {
				t.Fatal(err)
			}
			if e.band != nil || e.fuse.BlockBands != nil {
				t.Fatalf("%s: want a flat fuse, got opts=%+v", name, e.fuse)
			}

			x, p, r, q := vecs()
			x.Raw()[4] ^= 1<<40 | 1<<41
			if _, err := e.axpyDot(x, 0.5, p, r, q); err == nil {
				t.Fatal("axpyDot ignored a corrupted x")
			}
			x, p, r, q = vecs()
			r.Raw()[4] ^= 1<<40 | 1<<41
			if _, err := e.axpyDot(x, 0.5, p, r, q); err == nil {
				t.Fatal("axpyDot ignored a corrupted r")
			}
			dst, xx, y, _ := vecs()
			y.Raw()[4] ^= 1<<40 | 1<<41
			if _, err := e.updateNorm(dst, 1, xx, -1, y); err == nil {
				t.Fatal("updateNorm ignored a corrupted y")
			}
		})
	}
}

// TestFuseDecision checks the engine's fuse classification directly:
// flat operators fuse flat, banded operators fuse with the band
// decomposition and tree reduction, and a non-banded wrapper fuses flat.
func TestFuseDecision(t *testing.T) {
	a, _, b := spdSystem(t, 6, 6)
	m := protect(t, a, core.None, core.None)
	n := a.Rows()
	x := core.NewVector(n, core.None)
	bv := core.VectorFromSlice(b, core.None)
	newEng := func(op Operator) *engine {
		e, err := newEngine("cg", op, x, bv, Options{Tol: 1e-8})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	flat := func(what string, e *engine) {
		t.Helper()
		if e.band != nil || e.fuse.BlockBands != nil {
			t.Fatalf("%s: want flat fuse, got opts=%+v", what, e.fuse)
		}
	}
	flat("flat operator", newEng(MatrixOperator{M: m}))

	bands := [][2]int{{0, 4 * core.BlockLen}, {4 * core.BlockLen, n}}
	e := newEng(bandedFake{MatrixOperator{M: m}, bands})
	if e.band == nil || len(e.fuse.BlockBands) == 0 {
		t.Fatalf("banded operator: want banded fuse, got opts=%+v", e.fuse)
	}
	wantBlocks := [][2]int{{0, 4}, {4, (n + core.BlockLen - 1) / core.BlockLen}}
	if len(e.fuse.BlockBands) != len(wantBlocks) {
		t.Fatalf("block bands %v want %v", e.fuse.BlockBands, wantBlocks)
	}
	for i, bb := range wantBlocks {
		if e.fuse.BlockBands[i] != bb {
			t.Fatalf("block band %d = %v want %v", i, e.fuse.BlockBands[i], bb)
		}
	}

	flat("non-banded wrapper", newEng(wrapperFake{MatrixOperator{M: m}}))
}
