package op

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
)

// batchRefColumns builds k deterministic, mutually distinct source
// columns for the batched-kernel parity tests.
func batchRefColumns(n, k int) [][]float64 {
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = float64((i*13+j*7)%29) - 14 + float64((i+j)%7)/8
		}
	}
	return cols
}

func batchMultiVector(cols [][]float64, s core.Scheme) *core.MultiVector {
	vecs := make([]*core.Vector, len(cols))
	for j := range cols {
		vecs[j] = core.VectorFromSlice(cols[j], s)
	}
	mv, err := core.WrapMultiVector(vecs...)
	if err != nil {
		panic(err)
	}
	return mv
}

// batchWidths are the widths the batch conformance tables run at: 1 is
// the single-RHS path of the one apply skeleton (ApplyBatch at width 1
// must be Apply), 3 a genuinely k-wide pass of single columns, and 4
// and 9 one group of four and two groups and a remainder in every
// format's clean stream (DESIGN.md section 40).
var batchWidths = []int{1, 3, 4, 9}

// forEachPairAndWidth is forEachPair with one table row per batch width.
func forEachPairAndWidth(t *testing.T, fn func(t *testing.T, f Format, s core.Scheme, k int)) {
	t.Helper()
	forEachPair(t, func(t *testing.T, f Format, s core.Scheme) {
		for _, k := range batchWidths {
			t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) { fn(t, f, s, k) })
		}
	})
}

// TestConformanceApplyBatchParity asserts the tentpole invariant for
// every format x scheme pair: one batched pass over the matrix is
// bit-identical to k independent single-RHS Apply calls, serial and
// parallel, in exclusive and shared (no-commit) mode.
func TestConformanceApplyBatchParity(t *testing.T) {
	forEachPairAndWidth(t, func(t *testing.T, f Format, s core.Scheme, k int) {
		plain := testMatrix(t)
		cols := batchRefColumns(plain.Cols32(), k)
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			for _, workers := range []int{1, 4} {
				m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
				if err != nil {
					t.Fatal(err)
				}
				m.SetReadMode(mode)
				ba, ok := m.(core.BatchApplier)
				if !ok {
					t.Fatalf("%v does not implement core.BatchApplier", f)
				}
				x := batchMultiVector(cols, core.None)
				dst := core.NewMultiVector(m.Rows(), k, core.None)
				if err := ba.ApplyBatch(dst, x, workers); err != nil {
					t.Fatalf("shared=%v workers=%d: %v", shared, workers, err)
				}
				for j := 0; j < k; j++ {
					single := core.NewVector(m.Rows(), core.None)
					if err := m.Apply(single, core.VectorFromSlice(cols[j], core.None), workers); err != nil {
						t.Fatal(err)
					}
					want := make([]float64, m.Rows())
					got := make([]float64, m.Rows())
					if err := single.CopyTo(want); err != nil {
						t.Fatal(err)
					}
					if err := dst.Col(j).CopyTo(got); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("shared=%v workers=%d col %d row %d: batch %x single %x",
								shared, workers, j, i,
								math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// TestConformanceApplyBatchFaultMidBatch corrupts one element codeword
// and asserts the batched kernel's verify-then-stream contract per
// DESIGN §12: in shared mode the corrective fallback produces the clean
// product in every column while leaving storage stale for the scrub; in
// exclusive mode the repair is committed. Correction counts match
// between the two modes, and SED detects in both.
func TestConformanceApplyBatchFaultMidBatch(t *testing.T) {
	forEachPairAndWidth(t, func(t *testing.T, f Format, s core.Scheme, k int) {
		if s == core.None {
			t.Skip("baseline has no protection")
		}
		plain := testMatrix(t)
		cols := batchRefColumns(plain.Cols32(), k)
		// Clean per-column references from the unprotected CSR product.
		want := make([][]float64, k)
		for j := range want {
			want[j] = make([]float64, plain.Rows())
			plain.SpMV(want[j], cols[j])
		}
		counts := map[bool]uint64{}
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			m.SetCounters(&c)
			m.SetReadMode(mode)
			flipValueBit(m)
			x := batchMultiVector(cols, core.None)
			dst := core.NewMultiVector(m.Rows(), k, core.None)
			applyErr := m.(core.BatchApplier).ApplyBatch(dst, x, 1)

			if s == core.SED {
				var fe *core.FaultError
				if applyErr == nil || !errors.As(applyErr, &fe) {
					t.Fatalf("shared=%v: SED did not detect: %v", shared, applyErr)
				}
				if c.Detected() == 0 {
					t.Fatalf("shared=%v: detection not counted", shared)
				}
				counts[shared] = c.Detected()
				continue
			}
			if applyErr != nil {
				t.Fatalf("shared=%v: correctable fault surfaced as error: %v", shared, applyErr)
			}
			if c.Corrected() == 0 {
				t.Fatalf("shared=%v: no correction recorded", shared)
			}
			counts[shared] = c.Corrected()
			for j := 0; j < k; j++ {
				got := make([]float64, m.Rows())
				if err := dst.Col(j).CopyTo(got); err != nil {
					t.Fatal(err)
				}
				for i := range want[j] {
					if got[i] != want[j][i] {
						t.Fatalf("shared=%v col %d row %d: diverged after correction", shared, j, i)
					}
				}
			}
			// Commit discipline: exclusive mode repaired storage, shared
			// mode left the raw fault for the scrub.
			corrected, err := m.Scrub()
			if err != nil {
				t.Fatalf("shared=%v: scrub: %v", shared, err)
			}
			wantLate := 0
			if shared {
				wantLate = 1
			}
			if corrected != wantLate {
				t.Fatalf("shared=%v: scrub corrected %d, want %d", shared, corrected, wantLate)
			}
		}
		if counts[false] != counts[true] {
			t.Fatalf("counter parity violated: exclusive %d, shared %d", counts[false], counts[true])
		}
	})
}

// TestConformanceSourceFlipCommitRule pins the one x-side rule every
// format's apply skeleton shares (core.DecodeSources, DESIGN §12): the
// source vectors are the caller's own operands, decoded on the calling
// goroutine before any fan-out, so each codeword is checked exactly once
// per sweep and a single flip is corrected *and repaired in storage* in
// exclusive and shared mode alike, serial or parallel, at any width —
// while SED detects it and an unverified sweep neither sees nor touches
// it. One flip in one column per format x scheme x mode x width.
func TestConformanceSourceFlipCommitRule(t *testing.T) {
	forEachPairAndWidth(t, func(t *testing.T, f Format, s core.Scheme, k int) {
		if s == core.None {
			t.Skip("baseline has no protection")
		}
		plain := testMatrix(t)
		cols := batchRefColumns(plain.Cols32(), k)
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared, core.ModeUnverified} {
			if mode == core.ModeUnverified && k > 1 {
				continue // ApplyBatch is always verified; width 1 covers this rung
			}
			for _, workers := range []int{1, 3} {
				m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
				if err != nil {
					t.Fatal(err)
				}
				m.SetReadMode(mode)
				x := batchMultiVector(cols, s)
				var c core.Counters
				x.SetCounters(&c)
				// Clean reference of the masked inputs, then the flip: a
				// mid-mantissa payload bit of the last column.
				want := make([][]float64, k)
				for j := range want {
					masked := make([]float64, plain.Cols32())
					if err := x.Col(j).CopyTo(masked); err != nil {
						t.Fatal(err)
					}
					want[j] = make([]float64, plain.Rows())
					plain.SpMV(want[j], masked)
				}
				checksBefore := c.Checks()
				victim := x.Col(k - 1)
				clean := victim.Raw()[5]
				victim.Raw()[5] ^= 1 << 40

				dst := core.NewMultiVector(m.Rows(), k, core.None)
				if k == 1 {
					err = m.Apply(dst.Col(0), x.Col(0), workers)
				} else {
					err = m.(core.BatchApplier).ApplyBatch(dst, x, workers)
				}
				tag := fmt.Sprintf("%v workers=%d", mode, workers)
				snap := c.Snapshot()
				switch {
				case mode == core.ModeUnverified:
					if err != nil || snap.Checks != checksBefore || snap.Corrected+snap.Detected != 0 || victim.Raw()[5] == clean {
						t.Fatalf("%s: unverified sweep saw or touched the flip: err %v, counters %+v", tag, err, snap)
					}
					continue
				case s == core.SED:
					var fe *core.FaultError
					if !errors.As(err, &fe) || fe.Structure != core.StructVector || snap.Detected != 1 {
						t.Fatalf("%s: SED flip in x: err %v, counters %+v", tag, err, snap)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: correctable flip in x surfaced as error: %v", tag, err)
				}
				perSweep := uint64(k*x.Blocks()) * uint64(core.BlockLen/s.VecGroup())
				if got := snap.Checks - checksBefore; got != perSweep || snap.Corrected != 1 || snap.Detected != 0 {
					t.Fatalf("%s: %d source checks (want %d), counters %+v", tag, got, perSweep, snap)
				}
				if victim.Raw()[5] != clean {
					t.Fatalf("%s: flip in the caller's operand was not repaired in storage", tag)
				}
				for j := range want {
					got := make([]float64, m.Rows())
					if err := dst.Col(j).CopyTo(got); err != nil {
						t.Fatal(err)
					}
					for i := range got {
						if got[i] != want[j][i] {
							t.Fatalf("%s col %d row %d: diverged after correction", tag, j, i)
						}
					}
				}
			}
		}
	})
}
