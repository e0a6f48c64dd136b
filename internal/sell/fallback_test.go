package sell

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// TestSharedFallbackStreamsCorrectedValues drives the verify-then-stream
// protocol through its corrective branch from inside the package: a
// value-bit flip in shared mode makes checkSlice report the slice dirty
// (it may not commit the repair), so its cold path must stage the slice
// through core.ColElems.DecodeLocal — a copy of each chunk repaired by
// the codec's committing check — while the product stays bit-exact
// against the unprotected reference and the stored fault survives for
// the owner's scrub.
func TestSharedFallbackStreamsCorrectedValues(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared} {
			shared := mode == core.ModeShared
			t.Run(fmt.Sprintf("%v_shared=%v", s, shared), func(t *testing.T) {
				plain := skewed(t, 41, 31)
				xs := make([]float64, plain.Cols32())
				for i := range xs {
					xs[i] = float64(i%17) - 8
				}
				want := make([]float64, plain.Rows())
				plain.SpMV(want, xs)

				m, err := NewMatrix(plain, Options{Scheme: s, Sigma: 8})
				if err != nil {
					t.Fatal(err)
				}
				var c core.Counters
				m.SetCounters(&c)
				m.SetReadMode(mode)

				// Flip one stored value bit per slice, so every slice of
				// the sweep exercises the dirty branch (padding lanes
				// included: the corrupt index may land on a pad entry of
				// a short lane, which the local decode must skip).
				v := m.RawVals()
				for sl := 0; sl < m.Slices(); sl++ {
					lo := m.slicePtr[sl]
					k := lo + (m.slicePtr[sl+1]-lo)/2
					v[k] = math.Float64frombits(math.Float64bits(v[k]) ^ 1<<40)
				}

				x := core.VectorFromSlice(xs, core.None)
				dst := core.NewVector(m.Rows(), core.None)
				if err := m.Apply(dst, x, 1); err != nil {
					t.Fatal(err)
				}
				got := make([]float64, m.Rows())
				if err := dst.CopyTo(got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("row %d: got %v want %v (fallback diverged)", i, got[i], want[i])
					}
				}

				m.SetReadMode(core.ModeExclusive)
				corrected, err := m.Scrub()
				if err != nil {
					t.Fatalf("scrub: %v", err)
				}
				if shared && corrected == 0 {
					t.Fatal("shared Apply committed a repair to storage")
				}
				if !shared && corrected != 0 {
					t.Fatalf("exclusive Apply left %d faults in storage", corrected)
				}
			})
		}
	}
}

// TestSharedFallbackCorruptedColumn flips a stored column-index bit (the
// codeword's data bits, not the value mantissa) in shared mode: the
// local decode must still mask and range-check the corrected column.
func TestSharedFallbackCorruptedColumn(t *testing.T) {
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128, core.CRC32C} {
		t.Run(s.String(), func(t *testing.T) {
			plain := skewed(t, 41, 31)
			xs := make([]float64, plain.Cols32())
			for i := range xs {
				xs[i] = float64(i%13) - 6
			}
			want := make([]float64, plain.Rows())
			plain.SpMV(want, xs)

			m, err := NewMatrix(plain, Options{Scheme: s, Sigma: 8})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			m.SetCounters(&c)
			m.SetReadMode(core.ModeShared)

			cols := m.RawCols()
			k := len(cols) / 2
			cols[k] ^= 1 << 2

			x := core.VectorFromSlice(xs, core.None)
			dst := core.NewVector(m.Rows(), core.None)
			if err := m.Apply(dst, x, 1); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, m.Rows())
			if err := dst.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
				}
			}
			if c.Corrected() == 0 {
				t.Fatal("no correction recorded for the index flip")
			}
		})
	}
}

// TestSECDEDSliceStrikesAllModes strikes every stored element of the
// matrix once and twice under the two SECDED schemes — whose codewords a
// slice verifies with one run-kernel call over its storage range — and
// applies it as the exclusive owner, as a shared reader and with two
// workers: the product is the clean one bit for bit, the sweep counts the
// checks a clean sweep counts and exactly one correction, storage is
// repaired unless the matrix is shared, and a double strike is reported
// as the codeword it hit.
func TestSECDEDSliceStrikesAllModes(t *testing.T) {
	plain := skewed(t, 41, 31)
	xs := make([]float64, plain.Cols32())
	for i := range xs {
		xs[i] = float64(i%17) - 8
	}
	x := core.VectorFromSlice(xs, core.None)
	type mode struct {
		name    string
		read    core.ReadMode
		workers int
	}
	modes := []mode{{"exclusive", core.ModeExclusive, 1}, {"shared", core.ModeShared, 1}, {"parallel", core.ModeExclusive, 2}}
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128} {
		m, err := NewMatrix(plain, Options{Scheme: s, Sigma: 8})
		if err != nil {
			t.Fatal(err)
		}
		var c core.Counters
		m.SetCounters(&c)
		cleanVals := append([]float64(nil), m.vals...)
		cleanCols := append([]uint32(nil), m.colIdx...)
		strike := func(k, bit int) {
			if bit < 64 {
				m.vals[k] = math.Float64frombits(math.Float64bits(m.vals[k]) ^ 1<<uint(bit))
			} else {
				m.colIdx[k] ^= 1 << uint(bit-64)
			}
		}
		for _, md := range modes {
			m.SetReadMode(md.read)
			copy(m.vals, cleanVals)
			copy(m.colIdx, cleanCols)
			dst := core.NewVector(m.Rows(), core.None)
			c = core.Counters{}
			if err := m.Apply(dst, x, md.workers); err != nil {
				t.Fatal(err)
			}
			want := append([]uint64(nil), dst.Raw()...)
			cleanChecks := c.Checks()
			for k := range m.vals {
				for _, bit := range []int{k % 64, 64 + k%32} {
					copy(m.vals, cleanVals)
					copy(m.colIdx, cleanCols)
					strike(k, bit)
					c = core.Counters{}
					name := fmt.Sprintf("%v %s entry %d bit %d", s, md.name, k, bit)
					if err := m.Apply(dst, x, md.workers); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, w := range dst.Raw() {
						if w != want[i] {
							t.Fatalf("%s: product word %d is %x, clean %x", name, i, w, want[i])
						}
					}
					if c.Checks() != cleanChecks || c.Corrected() != 1 || c.Detected() != 0 {
						t.Fatalf("%s: checks %d (clean %d) corrected %d detected %d", name, c.Checks(), cleanChecks, c.Corrected(), c.Detected())
					}
					repaired := math.Float64bits(m.vals[k]) == math.Float64bits(cleanVals[k]) && m.colIdx[k] == cleanCols[k]
					if repaired != md.read.Commits() {
						t.Fatalf("%s: storage repaired %v, want %v", name, repaired, md.read.Commits())
					}
				}
				copy(m.vals, cleanVals)
				copy(m.colIdx, cleanCols)
				strike(k, 11)
				strike(k, 75)
				c = core.Counters{}
				err := m.Apply(dst, x, md.workers)
				var fe *core.FaultError
				if !errors.As(err, &fe) || fe.Structure != core.StructElements || fe.Index != k/s.ElemGroup() || c.Detected() != 1 {
					t.Fatalf("%v %s entry %d struck twice: %v (detected %d)", s, md.name, k, err, c.Detected())
				}
			}
		}
	}
}

// crcSlices builds an 8x20 operator whose two slices (one sigma window of
// core.BlockLen rows, sorted by length) are 14 columns wide — two CRC32C
// chunks, of 13 columns and 1 — and 5 columns wide — one chunk. Row
// lengths vary inside each slice, so every chunk holds padding entries
// too.
func crcSlices(t *testing.T) *csr.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(26))
	var entries []csr.Entry
	for r, n := range []int{14, 3, 9, 1, 5, 2, 5, 5} {
		for _, c := range rng.Perm(20)[:n] {
			entries = append(entries, csr.Entry{Row: r, Col: c, Val: rng.NormFloat64()})
		}
	}
	m, err := csr.New(8, 20, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCRCSliceStrikesAllModes is the CRC32C counterpart of
// TestSECDEDSliceStrikesAllModes, over a two-chunk width-14 slice and a
// width-5 slice: every stored bit is struck once, and 600 seeded pairs
// twice, and the matrix applied as the exclusive owner, as a shared
// reader (which stages the slice through DecodeLocal) and with two
// workers. The product is the clean one bit for bit, the sweep counts
// the checks a clean sweep counts (one per chunk) and one correction per
// struck chunk, storage is repaired exactly when the mode commits, and
// three flips in one chunk are reported as that chunk.
func TestCRCSliceStrikesAllModes(t *testing.T) {
	plain := crcSlices(t)
	xs := make([]float64, plain.Cols32())
	for i := range xs {
		xs[i] = float64(i%7) - 3
	}
	x := core.VectorFromSlice(xs, core.None)
	m, err := NewMatrix(plain, Options{Scheme: core.CRC32C, Sigma: core.BlockLen})
	if err != nil {
		t.Fatal(err)
	}
	if m.sliceWidth(0) != 14 || m.sliceWidth(1) != 5 || m.chunks(0) != 2 || m.chunks(1) != 1 {
		t.Fatalf("slice widths %d, %d", m.sliceWidth(0), m.sliceWidth(1))
	}
	// chunkOf returns the first storage position and the entry count of
	// the chunk holding entry k.
	chunkOf := func(k int) (base, n int) {
		for sl := 0; sl < m.Slices(); sl++ {
			for i := 0; i < m.chunks(sl); i++ {
				if base, n := m.chunk(sl, i); k < base+n {
					return base, n
				}
			}
		}
		panic("entry outside storage")
	}
	// The fault campaigns' codeword picker draws a slice, then one of its
	// chunks, and names exactly that chunk.
	for sl := 0; sl < m.Slices(); sl++ {
		for i := 0; i < m.chunks(sl); i++ {
			draws := []int{sl, i}
			pick := func(int) int { d := draws[0]; draws = draws[1:]; return d }
			base, n := m.ElemCodewordSpan(pick)
			if wb, wn := m.chunk(sl, i); base != wb || n != wn {
				t.Fatalf("slice %d chunk %d: span (%d, %d), want (%d, %d)", sl, i, base, n, wb, wn)
			}
		}
	}
	var c core.Counters
	m.SetCounters(&c)
	cleanVals := append([]float64(nil), m.vals...)
	cleanCols := append([]uint32(nil), m.colIdx...)
	restore := func() {
		copy(m.vals, cleanVals)
		copy(m.colIdx, cleanCols)
	}
	strike := func(k, bit int) {
		if bit < 64 {
			m.vals[k] = math.Float64frombits(math.Float64bits(m.vals[k]) ^ 1<<uint(bit))
		} else {
			m.colIdx[k] ^= 1 << uint(bit-64)
		}
	}
	type flip struct{ k, bit int }
	bits := 96 * len(m.vals)
	cases := make([][]flip, 0, bits+600)
	for b := 0; b < bits; b++ {
		cases = append(cases, []flip{{b / 96, b % 96}})
	}
	rng := rand.New(rand.NewSource(27))
	for len(cases) < bits+600 {
		a, b := rng.Intn(bits), rng.Intn(bits)
		if len(cases)%2 == 0 { // half the pairs inside one chunk
			base, n := chunkOf(a / 96)
			b = 96*base + rng.Intn(96*n)
		}
		if a != b {
			cases = append(cases, []flip{{a / 96, a % 96}, {b / 96, b % 96}})
		}
	}
	type mode struct {
		name    string
		read    core.ReadMode
		workers int
	}
	for _, md := range []mode{{"exclusive", core.ModeExclusive, 1}, {"shared", core.ModeShared, 1}, {"parallel", core.ModeExclusive, 2}} {
		m.SetReadMode(md.read)
		restore()
		dst := core.NewVector(m.Rows(), core.None)
		c = core.Counters{}
		if err := m.Apply(dst, x, md.workers); err != nil {
			t.Fatal(err)
		}
		want := append([]uint64(nil), dst.Raw()...)
		cleanChecks := c.Checks()
		if cleanChecks != 3 {
			t.Fatalf("%s: clean sweep made %d checks, want one per chunk (3)", md.name, cleanChecks)
		}
		for _, flips := range cases {
			restore()
			chunks := map[int]bool{}
			for _, f := range flips {
				strike(f.k, f.bit)
				base, _ := chunkOf(f.k)
				chunks[base] = true
			}
			c = core.Counters{}
			name := fmt.Sprintf("%s flips %v", md.name, flips)
			if err := m.Apply(dst, x, md.workers); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, w := range dst.Raw() {
				if w != want[i] {
					t.Fatalf("%s: product word %d is %x, clean %x", name, i, w, want[i])
				}
			}
			if c.Checks() != cleanChecks || c.Corrected() != uint64(len(chunks)) || c.Detected() != 0 {
				t.Fatalf("%s: checks %d (clean %d) corrected %d (chunks struck %d) detected %d",
					name, c.Checks(), cleanChecks, c.Corrected(), len(chunks), c.Detected())
			}
			repaired := true
			for _, f := range flips {
				repaired = repaired && math.Float64bits(m.vals[f.k]) == math.Float64bits(cleanVals[f.k]) && m.colIdx[f.k] == cleanCols[f.k]
			}
			if repaired != md.read.Commits() {
				t.Fatalf("%s: storage repaired %v, want %v", name, repaired, md.read.Commits())
			}
		}
		for sl := 0; sl < m.Slices(); sl++ {
			for i := 0; i < m.chunks(sl); i++ {
				base, n := m.chunk(sl, i)
				restore()
				strike(base, 5)
				strike(base+n/2, 70)
				strike(base+n-1, 90)
				c = core.Counters{}
				err := m.Apply(dst, x, md.workers)
				var fe *core.FaultError
				if !errors.As(err, &fe) || fe.Structure != core.StructElements || fe.Index != base || c.Detected() != 1 {
					t.Fatalf("%s chunk at %d struck three times: %v (detected %d)", md.name, base, err, c.Detected())
				}
			}
		}
	}
}
