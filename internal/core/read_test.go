package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestVectorReadContract pins Read over every scheme, read mode and span
// (one block, a run, the whole vector), with one flip planted in a data
// bit of the span's middle block:
//
//   - the verifying modes count exactly (b1-b0) blocks' checks, once;
//     unverified counts nothing;
//   - exclusive returns the corrected values and repairs storage, shared
//     returns them and leaves storage struck, unverified returns the
//     masked payload as stored (SED detects the flip instead);
//   - an out-of-range span and a short dst fail in every mode, uncounted.
func TestVectorReadContract(t *testing.T) {
	data := randSlice(rand.New(rand.NewSource(61)), 5*BlockLen-3)
	const struckWord = 2*BlockLen + 3
	modes := []ReadMode{ModeExclusive, ModeShared, ModeUnverified}
	for _, s := range Schemes {
		for _, mode := range modes {
			for _, span := range [][2]int{{2, 3}, {1, 4}, {0, 5}} {
				b0, b1 := span[0], span[1]
				name := fmt.Sprintf("%v/%v/[%d,%d)", s, mode, b0, b1)
				v := VectorFromSlice(data, s)
				clean := slices.Clone(v.Raw())
				var c Counters
				v.SetCounters(&c)
				if s != None {
					v.Raw()[struckWord] ^= 1 << 40
				}
				struck := slices.Clone(v.Raw())
				dst := make([]float64, (b1-b0)*BlockLen)
				err := v.Read(b0, b1, dst, mode)

				var want CounterSnapshot
				if mode.Verifies() && s != None {
					want.Checks = uint64(b1-b0) * uint64(BlockLen/s.VecGroup())
					if s == SED {
						want.Detected = 1
					} else {
						want.Corrected = 1
					}
				}
				if got := c.Snapshot(); got != want {
					t.Errorf("%s: counters %+v, want %+v", name, got, want)
				}
				if s == SED && mode.Verifies() {
					if fe := (*FaultError)(nil); !errors.As(err, &fe) {
						t.Errorf("%s: %v, want a FaultError", name, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				src, stored := clean, struck
				if !mode.Verifies() {
					src = struck
				}
				if mode.Commits() {
					stored = clean
				}
				for i, x := range dst {
					if w := v.Mask(math.Float64frombits(src[b0*BlockLen+i])); math.Float64bits(x) != math.Float64bits(w) {
						t.Fatalf("%s: dst[%d] = %v, want %v", name, i, x, w)
					}
				}
				if !slices.Equal(v.Raw(), stored) {
					t.Errorf("%s: storage after the read is not the expected one", name)
				}
			}

			v := NewVector(3*BlockLen, s)
			var c Counters
			v.SetCounters(&c)
			for _, bad := range []struct{ b0, b1, n int }{
				{-1, 1, 2 * BlockLen},  // starts before the vector
				{2, 4, 2 * BlockLen},   // ends past it
				{2, 1, BlockLen},       // inverted
				{0, 2, 2*BlockLen - 1}, // dst one short
			} {
				if err := v.Read(bad.b0, bad.b1, make([]float64, bad.n), mode); err == nil {
					t.Errorf("%v/%v: Read(%d, %d) into %d accepted", s, mode, bad.b0, bad.b1, bad.n)
				}
			}
			if got := c.Snapshot(); got != (CounterSnapshot{}) {
				t.Errorf("%v/%v: rejected reads counted %+v", s, mode, got)
			}
		}
	}
}
