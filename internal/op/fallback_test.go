package op

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// TestVerifyThenStreamFallback corrupts a codeword inside a
// batch-verified block and asserts the fast read path degrades
// correctly for every format in both ownership modes:
//
//   - exclusive (the default): the batch verify repairs storage in
//     place, so the block streams clean and a later scrub finds nothing;
//   - shared (ModeShared): the verify must not write storage, so the
//     dirty block is staged (decoded into locals, correction applied
//     there) and the stage streamed, and the stored fault survives for
//     the owner's scrub.
//
// In both modes the product must be bit-exact against the unprotected
// reference — the fallback is a slower decode of the same values, never
// a different computation.
//
// Each struck product runs from freshly struck storage through Apply
// and through ApplyBatch at widths 4 and 9, on one worker and on three:
// the sweep driver counts a group's checks once, whatever its path and
// however many columns stream from it (core.SweepGroups, DESIGN.md
// section 42), so a struck product counts the checks of the same
// product over clean storage, and the same corrections and detections,
// at every width and worker count. The checks are the same at both
// worker counts too, except in CSR, where the row-pointer group holding
// the pointer at an interior range boundary is read by both ranges.
func TestVerifyThenStreamFallback(t *testing.T) {
	for _, f := range Formats {
		for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
			for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
				shared := mode == core.ModeShared
				t.Run(fmt.Sprintf("%v_%v_shared=%v", f, s, shared), func(t *testing.T) {
					plain := testMatrix(t)
					var first core.CounterSnapshot
					for _, workers := range []int{1, 3} {
						clean := struckProduct(t, f, s, mode, plain, workers, 1, false, "clean")
						for _, width := range []int{1, 4, 9} {
							name := fmt.Sprintf("workers=%d width=%d", workers, width)
							got := struckProduct(t, f, s, mode, plain, workers, width, true, name)
							if workers == 1 && width == 1 {
								first = got
							}
							want := first
							if f == CSR {
								want.Checks = clean.Checks
							}
							switch {
							case got.Corrected == 0:
								t.Fatalf("%s: no correction recorded for the injected flip", name)
							case got.Checks != clean.Checks:
								t.Fatalf("%s: %d checks, %d over clean storage", name, got.Checks, clean.Checks)
							case got != want:
								t.Fatalf("%s: counted %+v, workers=1 width=1 counted %+v", name, got, first)
							}
						}
					}
				})
			}
		}
	}
}

// struckProduct builds m in format f under scheme s and read mode mode,
// flips one mid-mantissa bit in the middle of its element stream when
// strike is set — inside some batch-verified block, not at a block
// boundary — runs one product of the given width over the given
// workers, checks every column bit for bit against the unprotected
// reference, and returns what the product counted. After a struck
// product on one worker it then checks the commit discipline: an
// exclusive product repaired storage, a shared one left the fault for
// the owning scrub.
func struckProduct(t *testing.T, f Format, s core.Scheme, mode core.ReadMode, plain *csr.Matrix, workers, width int, strike bool, name string) core.CounterSnapshot {
	t.Helper()
	cols := batchRefColumns(plain.Cols32(), width)
	m, err := New(f, plain, Config{Scheme: s, RowPtrScheme: s})
	if err != nil {
		t.Fatal(err)
	}
	var c core.Counters
	m.SetCounters(&c)
	m.SetReadMode(mode)
	if v := m.RawVals(); strike {
		k := len(v) / 2
		v[k] = math.Float64frombits(math.Float64bits(v[k]) ^ 1<<40)
	}

	x, dst := batchMultiVector(cols, core.None), core.NewMultiVector(m.Rows(), width, core.None)
	if width == 1 {
		err = m.Apply(dst.Col(0), x.Col(0), workers)
	} else {
		err = m.(core.BatchApplier).ApplyBatch(dst, x, workers)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	counted := c.Snapshot()
	want, got := make([]float64, plain.Rows()), make([]float64, m.Rows())
	for j, col := range cols {
		plain.SpMV(want, col)
		if err := dst.Col(j).CopyTo(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s column %d row %d: got %v want %v (fallback diverged from reference)", name, j, i, got[i], want[i])
			}
		}
	}
	if !strike || workers > 1 {
		// A CSR product on more than one worker never commits.
		return counted
	}
	m.SetReadMode(core.ModeExclusive)
	corrected, err := m.Scrub()
	if err != nil {
		t.Fatalf("%s: scrub: %v", name, err)
	}
	shared := mode == core.ModeShared
	if shared && corrected == 0 {
		t.Fatalf("%s: shared product committed a repair to storage", name)
	}
	if !shared && corrected != 0 {
		t.Fatalf("%s: exclusive product left the fault in storage (%d late corrections)", name, corrected)
	}
	return counted
}
