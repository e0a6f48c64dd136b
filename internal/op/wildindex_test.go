package op_test

import (
	"errors"
	"fmt"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
)

// TestWildIndexIsBoundsError strikes one index of an unprotected
// (none-element) matrix and checks the next product reports a
// StructElements BoundsError instead of panicking or reading the block
// padding of x: every format range-checks every index under every
// scheme. Bit 30 of an index is far outside any operand; index 30 of
// the 25-row Laplacian2D(5, 5) lies in the padding of x (32 words) and,
// for a COO row, past the 25 accumulators. COO's row indices are struck
// as well as its columns. Under none vectors too CSR decodes x and runs
// its one sweep (DESIGN.md section 43), whose streams range-check each
// column against Cols(), not against the padded decode buffer.
//
// Every strike runs through Apply and through ApplyBatch at widths 4
// and 9, one group of four and two groups and a remainder of the clean
// stream's column groups (DESIGN.md section 40): the wild index must be
// the same BoundsError, at the same entry, whatever group meets it.
//
// CSR's row pointers are struck too: pointer 3 set to 1<<20, past
// storage, and pointers 3 and 4 swapped, a non-monotone pair. Either is
// the StructRowPtr BoundsError of row 3 on every path, the all-none
// product's included, whose unchecked cursor holds each block's pointers
// to storage and to order before it reads a row.
func TestWildIndexIsBoundsError(t *testing.T) {
	strikes := []struct {
		name string
		f    func(uint32) uint32
	}{
		{"bit 30", func(c uint32) uint32 { return c ^ 1<<30 }},
		{"index 30", func(uint32) uint32 { return 30 }},
	}
	type target struct {
		name string
		raw  func(core.ProtectedMatrix) []uint32
	}
	cols := target{"column", func(m core.ProtectedMatrix) []uint32 { return m.RawCols() }}
	rows := target{"row", func(m core.ProtectedMatrix) []uint32 {
		return m.(interface{ RawRows() []uint32 }).RawRows()
	}}
	src := csr.Laplacian2D(5, 5)
	n := src.Rows()
	both := []core.Scheme{core.None, core.SECDED64}
	for _, f := range []struct {
		format  op.Format
		targets []target
		vectors []core.Scheme
	}{
		{op.COO, []target{cols, rows}, both},
		{op.SELLCS, []target{cols}, both},
		{op.CSR, []target{cols}, both},
	} {
		for _, vs := range f.vectors {
			for _, tg := range f.targets {
				for _, st := range strikes {
					name := fmt.Sprintf("%v %s %s, %v vectors", f.format, tg.name, st.name, vs)
					m, err := op.New(f.format, src, op.Config{Scheme: core.None})
					if err != nil {
						t.Fatal(err)
					}
					x, dst := core.NewVector(n, vs), core.NewVector(n, vs)
					x.Fill(1)
					if err := m.Apply(dst, x, 1); err != nil {
						t.Fatalf("%s: clean product: %v", name, err)
					}
					// The first stored entry with a value: not SELL padding.
					k := 20
					for m.RawVals()[k] == 0 {
						k++
					}
					raw := tg.raw(m)
					raw[k] = st.f(raw[k])
					var at int
					for _, width := range []int{1, 4, 9} {
						be := wildProduct(t, fmt.Sprintf("%s, width %d", name, width), m, vs, width, core.StructElements)
						switch {
						case be == nil:
						case width == 1:
							at = be.Index
						case be.Index != at:
							t.Errorf("%s: width %d reports entry %d, width 1 entry %d", name, width, be.Index, at)
						}
					}
				}
			}
		}
	}
	for _, vs := range both {
		for _, st := range []struct {
			name string
			f    func(p []uint32)
		}{
			{"pointer 3 at 1<<20", func(p []uint32) { p[3] = 1 << 20 }},
			{"pointers 3 and 4 swapped", func(p []uint32) { p[3], p[4] = p[4], p[3] }},
		} {
			m, err := op.New(op.CSR, src, op.Config{Scheme: core.None})
			if err != nil {
				t.Fatal(err)
			}
			st.f(m.(interface{ RawRowPtr() []uint32 }).RawRowPtr())
			for _, width := range []int{1, 4, 9} {
				name := fmt.Sprintf("csr %s, %v vectors, width %d", st.name, vs, width)
				if be := wildProduct(t, name, m, vs, width, core.StructRowPtr); be != nil && be.Index != 3 {
					t.Errorf("%s: reports row %d, want row 3", name, be.Index)
				}
			}
		}
	}
}

// wildProduct runs one product of m at the given width over columns of
// ones under vector scheme vs and returns its BoundsError, which must
// name structure st, having reported a panic or any other result as a
// failure.
func wildProduct(t *testing.T, name string, m core.ProtectedMatrix, vs core.Scheme, width int, st core.Structure) (be *core.BoundsError) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: wild index panicked: %v", name, p)
			be = nil
		}
	}()
	x, dst := core.NewMultiVector(m.Cols(), width, vs), core.NewMultiVector(m.Rows(), width, vs)
	for j := 0; j < width; j++ {
		x.Col(j).Fill(1)
	}
	var err error
	if width == 1 {
		err = m.Apply(dst.Col(0), x.Col(0), 1)
	} else {
		err = m.(core.BatchApplier).ApplyBatch(dst, x, 1)
	}
	if !errors.As(err, &be) || be.Structure != st {
		t.Errorf("%s: wild index not caught by range check: %v", name, err)
		return nil
	}
	return be
}
