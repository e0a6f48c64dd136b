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
// (none-element) COO or SELL-C-sigma matrix and checks the next product
// reports a StructElements BoundsError instead of panicking or reading
// the block padding of x: every format range-checks every index under
// every scheme, as CSR does. Bit 30 of an index is far outside any
// operand; index 30 of the 25-row Laplacian2D(5, 5) lies in the padding
// of x (32 words) and, for a COO row, past the 25 accumulators. COO's row
// indices are struck as well as its columns.
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
	for _, f := range []struct {
		format  op.Format
		targets []target
	}{{op.COO, []target{cols, rows}}, {op.SELLCS, []target{cols}}} {
		for _, vs := range []core.Scheme{core.None, core.SECDED64} {
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
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Errorf("%s: wild index panicked: %v", name, p)
							}
						}()
						var be *core.BoundsError
						if err := m.Apply(dst, x, 1); !errors.As(err, &be) || be.Structure != core.StructElements {
							t.Errorf("%s: wild index not caught by range check: %v", name, err)
						}
					}()
				}
			}
		}
	}
}
