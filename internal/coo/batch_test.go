package coo

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// batchColumns builds k deterministic input columns plus the per-column
// single-RHS reference products from the unprotected source.
func batchColumns(t *testing.T, plain *csr.Matrix, k int) (xbufs [][]float64, want [][]float64) {
	t.Helper()
	cols := int(plain.Cols32())
	xbufs = make([][]float64, k)
	want = make([][]float64, k)
	for j := 0; j < k; j++ {
		xs := make([]float64, cols)
		for i := range xs {
			xs[i] = float64((i*7+j*13)%23) - 11
		}
		ref := make([]float64, plain.Rows())
		plain.SpMV(ref, xs)
		xbufs[j] = xs
		want[j] = ref
	}
	return xbufs, want
}

func wrapBatch(t *testing.T, xbufs [][]float64) *core.MultiVector {
	t.Helper()
	cols := make([]*core.Vector, len(xbufs))
	for j := range xbufs {
		cols[j] = core.VectorFromSlice(xbufs[j], core.None)
	}
	mv, err := core.WrapMultiVector(cols...)
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

func checkBatch(t *testing.T, dst *core.MultiVector, want [][]float64, label string) {
	t.Helper()
	got := make([]float64, dst.Len())
	for j := 0; j < dst.K(); j++ {
		if err := dst.Col(j).CopyTo(got); err != nil {
			t.Fatal(err)
		}
		for i := range want[j] {
			if got[i] != want[j][i] {
				t.Fatalf("%s col %d row %d: got %v want %v (batched product diverged)",
					label, j, i, got[i], want[j][i])
			}
		}
	}
}

// TestApplyBatchMatchesApply: a clean batched pass is bit-identical to k
// independent single-RHS Apply calls, for every scheme and for both the
// serial and the range-parallel reduction.
func TestApplyBatchMatchesApply(t *testing.T) {
	for _, s := range []core.Scheme{core.None, core.SED, core.SECDED64, core.SECDED128, core.CRC32C} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v_workers=%d", s, workers), func(t *testing.T) {
				plain := buildSrc(t)
				xbufs, want := batchColumns(t, plain, 3)

				m, err := NewMatrix(plain, Options{Scheme: s})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				m.SetCounters(&c)

				dst := core.NewMultiVector(m.Rows(), 3, core.None)
				if err := m.ApplyBatch(dst, wrapBatch(t, xbufs), workers); err != nil {
					t.Fatal(err)
				}
				checkBatch(t, dst, want, "clean")
			})
		}
	}
}

// TestApplyBatchSharedFallback drives the batched verify-then-stream
// protocol through its corrective branch: a value-bit flip in shared
// mode makes the chunk verify report dirty without committing the
// repair, so its cold path must stage the chunk once (triplets.stage) and
// stream the stage into every column, while every column stays bit-exact
// against the unprotected reference and the stored fault survives for
// the owner's scrub.
func TestApplyBatchSharedFallback(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			t.Run(fmt.Sprintf("%v_shared=%v", s, shared), func(t *testing.T) {
				plain := buildSrc(t)
				xbufs, want := batchColumns(t, plain, 3)

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
					dst := core.NewMultiVector(m.Rows(), 3, core.None)
					if err := m.ApplyBatch(dst, wrapBatch(t, xbufs), workers); err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					checkBatch(t, dst, want, fmt.Sprintf("workers=%d", workers))
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
					t.Fatal("shared ApplyBatch committed a repair to storage")
				}
				if !shared && corrected != 0 {
					t.Fatalf("exclusive ApplyBatch left %d faults in storage", corrected)
				}
			})
		}
	}
}

// TestApplyBatchShapeErrors: dimension and width mismatches are rejected
// before any arithmetic.
func TestApplyBatchShapeErrors(t *testing.T) {
	plain := buildSrc(t)
	m, err := NewMatrix(plain, Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewMultiVector(int(plain.Cols32()), 2, core.None)
	short := core.NewMultiVector(m.Rows()+4, 2, core.None)
	if err := m.ApplyBatch(short, x, 1); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	wide := core.NewMultiVector(m.Rows(), 3, core.None)
	if err := m.ApplyBatch(wide, x, 1); err == nil {
		t.Fatal("width mismatch accepted")
	}
}
