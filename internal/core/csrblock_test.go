package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"abft/internal/csr"
	"abft/internal/par"
)

// The CSR product's clean path works by output block (csrSweep.block)
// and sends any block that is not clean to the per-row code
// (csrSweep.rows). These tests hold the whole product to an oracle that
// sends every block to the per-row code: the same output bits, the same
// error, the same counters and the same storage afterwards, for every
// scheme pair, width, worker count, check interval and read mode, clean
// and under strikes of every codeword.

// perRow is the oracle layout: Matrix.Product with every block of every
// range taken by the per-row code.
type perRow struct{ *Matrix }

func (o perRow) Product(dsts, xs []*Vector, workers int, sw Sweep) error {
	m := o.Matrix
	ranges := par.Ranges(m.rows, workers, BlockLen)
	commit := sw.Commit && len(ranges) <= 1
	return DecodeSources(dsts, xs, !sw.Sources, func(xbufs [][]float64, ep *DotEpilogue) error {
		return par.Run(ranges, func(lo, hi int) error {
			s := m.newSweep(xbufs, sw.Full, commit)
			defer s.flush()
			for r0 := lo; r0 < hi; r0 += BlockLen {
				n := min(hi-r0, BlockLen)
				if err := s.rows(r0, n); err != nil {
					return err
				}
				s.write(dsts, ep, r0, n)
			}
			return nil
		})
	})
}

// blockCase is one product sequence: interval+1 products of the given
// width over the given workers, under the given read mode.
type blockCase struct {
	width, workers, interval int
	mode                     ReadMode
}

func (c blockCase) String() string {
	return fmt.Sprintf("width %d workers %d interval %d %v", c.width, c.workers, c.interval, c.mode)
}

// blockCases is every combination the tests draw from.
func blockCases() []blockCase {
	var out []blockCase
	for _, width := range []int{1, 3, 8} {
		for workers := 1; workers <= 4; workers++ {
			for _, interval := range []int{1, 4} {
				for _, mode := range []ReadMode{ModeExclusive, ModeShared, ModeUnverified} {
					out = append(out, blockCase{width, workers, interval, mode})
				}
			}
		}
	}
	return out
}

// blockCSR returns a 29-row square matrix: three full blocks and a
// partial one, empty rows, and block entry spans of odd length, so
// SECDED128 pairs straddle rows at block boundaries.
func blockCSR(t *testing.T) *csr.Matrix {
	t.Helper()
	widths := []int{4, 0, 2, 5, 1, 4, 0, 3, 1, 1, 0, 6, 2, 3, 0, 1, 5, 2, 0, 3, 3, 1, 4, 0, 2, 7, 1, 0, 3}
	rng := rand.New(rand.NewSource(38))
	var entries []csr.Entry
	for r, w := range widths {
		for _, col := range rng.Perm(len(widths))[:w] {
			entries = append(entries, csr.Entry{Row: r, Col: col, Val: rng.NormFloat64()})
		}
	}
	m, err := csr.New(len(widths), len(widths), entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// csrTwin is one protected matrix twice: a runs the product, b the
// per-row oracle. Both start every case from the same clean storage.
type csrTwin struct {
	a, b         *Matrix
	ca, cb       Counters
	vals         []float64
	cols, rowptr []uint32
	xs           [][]float64
}

func newCSRTwin(t *testing.T, plain *csr.Matrix, es, rs Scheme) *csrTwin {
	t.Helper()
	tw := &csrTwin{}
	for _, m := range []**Matrix{&tw.a, &tw.b} {
		var err error
		if *m, err = NewMatrix(plain, MatrixOptions{ElemScheme: es, RowPtrScheme: rs}); err != nil {
			t.Fatal(err)
		}
	}
	tw.b.layout = perRow{tw.b}
	tw.a.SetCounters(&tw.ca)
	tw.b.SetCounters(&tw.cb)
	tw.vals = append([]float64(nil), tw.a.vals...)
	tw.cols = append([]uint32(nil), tw.a.colIdx...)
	tw.rowptr = append([]uint32(nil), tw.a.rowptr...)
	rng := rand.New(rand.NewSource(int64(es)*8 + int64(rs)))
	for j := 0; j < 8; j++ {
		tw.xs = append(tw.xs, randSlice(rng, plain.Cols32()))
	}
	return tw
}

// reset restores both matrices' clean storage and zeroes their counters
// and sweep counters.
func (tw *csrTwin) reset() {
	for _, m := range []*Matrix{tw.a, tw.b} {
		copy(m.vals, tw.vals)
		copy(m.colIdx, tw.cols)
		copy(m.rowptr, tw.rowptr)
		m.sweep.Store(0)
	}
	tw.ca, tw.cb = Counters{}, Counters{}
}

// both applies f to the storage of both matrices.
func (tw *csrTwin) both(f func(m *Matrix)) {
	f(tw.a)
	f(tw.b)
}

// run runs c's products on both matrices from their current storage and
// fails at the first product that panicked on either side or whose
// error, output bits, counters or storage differ.
func (tw *csrTwin) run(t *testing.T, name string, c blockCase) {
	t.Helper()
	type side struct {
		m    *Matrix
		x, d []*Vector
	}
	var sides [2]side
	for i, m := range []*Matrix{tw.a, tw.b} {
		m.SetReadMode(c.mode)
		m.SetCheckInterval(c.interval)
		s := side{m: m}
		for j := 0; j < c.width; j++ {
			s.x = append(s.x, VectorFromSlice(tw.xs[j], SECDED64))
			s.d = append(s.d, NewVector(m.Rows(), None))
		}
		sides[i] = s
	}
	for sweep := 0; sweep <= c.interval; sweep++ {
		var errs [2]error
		for i, s := range sides {
			if c.width == 1 {
				errs[i] = s.m.Apply(s.d[0], s.x[0], c.workers)
				continue
			}
			dm, err := WrapMultiVector(s.d...)
			if err != nil {
				t.Fatal(err)
			}
			xm, err := WrapMultiVector(s.x...)
			if err != nil {
				t.Fatal(err)
			}
			errs[i] = s.m.ApplyBatch(dm, xm, c.workers)
		}
		at := fmt.Sprintf("%s, %v, product %d", name, c, sweep)
		for _, err := range errs {
			if pe := (*par.PanicError)(nil); errors.As(err, &pe) {
				t.Fatalf("%s: %v", at, pe.Value)
			}
		}
		if !reflect.DeepEqual(errs[0], errs[1]) {
			t.Fatalf("%s: error %v, per-row %v", at, errs[0], errs[1])
		}
		if a, b := tw.ca.Snapshot(), tw.cb.Snapshot(); a != b {
			t.Fatalf("%s: counters %+v, per-row %+v", at, a, b)
		}
		for j := range sides[0].d {
			if a, b := sides[0].d[j].Raw(), sides[1].d[j].Raw(); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: column %d output %x, per-row %x", at, j, a, b)
			}
		}
		for k := range tw.a.vals {
			if math.Float64bits(tw.a.vals[k]) != math.Float64bits(tw.b.vals[k]) || tw.a.colIdx[k] != tw.b.colIdx[k] {
				t.Fatalf("%s: element %d stored as %x/%x, per-row %x/%x", at, k,
					math.Float64bits(tw.a.vals[k]), tw.a.colIdx[k], math.Float64bits(tw.b.vals[k]), tw.b.colIdx[k])
			}
		}
		if !reflect.DeepEqual(tw.a.rowptr, tw.b.rowptr) {
			t.Fatalf("%s: row pointers stored as %x, per-row %x", at, tw.a.rowptr, tw.b.rowptr)
		}
	}
}

// elemCodewords lists the storage entries of each element codeword: one
// entry under none, SED and SECDED64, a pair under SECDED128, a row
// under CRC32C.
func elemCodewords(m *Matrix) [][]int {
	var out [][]int
	span := func(lo, hi int) []int {
		var ks []int
		for k := lo; k < hi; k++ {
			ks = append(ks, k)
		}
		return ks
	}
	switch m.scheme {
	case SECDED128:
		for t := 0; 2*t < m.nnz; t++ {
			out = append(out, span(2*t, 2*t+2))
		}
	case CRC32C:
		mask := m.rowGroups().Mask()
		for r := 0; r < m.rows; r++ {
			out = append(out, span(int(m.rowptr[r]&mask), int(m.rowptr[r+1]&mask)))
		}
	default:
		for k := 0; k < m.nnz; k++ {
			out = append(out, span(k, k+1))
		}
	}
	return out
}

// TestCSRBlockMatchesPerRowOracle runs every case clean, then strikes
// every element codeword and every row-pointer group once and twice, for
// every element scheme and row-pointer scheme. Unprotected elements are
// struck in their column indices too: both paths range-check every
// column, so a wild one is the same BoundsError. Each element strike
// runs one case drawn in rotation; each row-pointer strike runs under
// all three read modes, so every group is struck in shared mode, where a
// correction is never committed — including the group a block shares
// with the next.
func TestCSRBlockMatchesPerRowOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	plain := blockCSR(t)
	cases := blockCases()
	rng := rand.New(rand.NewSource(3838))
	draw := 0
	next := func() blockCase {
		draw++
		return cases[(draw*7)%len(cases)]
	}
	for _, pair := range allSchemePairs() {
		es, rs := pair[0], pair[1]
		tw := newCSRTwin(t, plain, es, rs)
		name := fmt.Sprintf("elements %v row pointers %v", es, rs)
		for _, c := range cases {
			tw.reset()
			tw.run(t, name+" clean", c)
		}
		const entryBits = 96
		for i, cw := range elemCodewords(tw.a) {
			for n := 1; n <= 2; n++ {
				bits := rng.Perm(entryBits * len(cw))[:n]
				tw.reset()
				tw.both(func(m *Matrix) {
					for _, b := range bits {
						strikeElems(m.vals, m.colIdx, cw[b/entryBits], b%entryBits)
					}
				})
				tw.run(t, fmt.Sprintf("%s element codeword %d struck at %v", name, i, bits), next())
			}
		}
		g := rs.RowPtrGroup()
		for grp := 0; grp < len(tw.rowptr)/g; grp++ {
			for n := 1; n <= 2; n++ {
				bits := rng.Perm(32 * g)[:n]
				for _, mode := range []ReadMode{ModeExclusive, ModeShared, ModeUnverified} {
					c := next()
					c.mode = mode
					tw.reset()
					tw.both(func(m *Matrix) {
						for _, b := range bits {
							m.rowptr[grp*g+b/32] ^= 1 << uint(b%32)
						}
					})
					tw.run(t, fmt.Sprintf("%s row-pointer group %d struck at %v", name, grp, bits), c)
				}
			}
		}
	}
}

// TestCSRBlockPlantedStructure plants, at each row position of the
// second block, a wild column in a codeword re-encoded around it and a
// non-monotone row pointer in a group re-encoded around it: faults no
// codeword reports, which the block path's range and monotonicity tests
// must send to the per-row code's BoundsError.
func TestCSRBlockPlantedStructure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	plain := blockCSR(t)
	var cases []blockCase
	for _, c := range blockCases() {
		if c.width != 3 && c.workers != 2 && c.workers != 3 {
			cases = append(cases, c)
		}
	}
	for _, pair := range allSchemePairs() {
		es, rs := pair[0], pair[1]
		tw := newCSRTwin(t, plain, es, rs)
		name := fmt.Sprintf("elements %v row pointers %v", es, rs)
		mask := indexGroups{Scheme: rs}.Mask()
		for i := 0; i < BlockLen; i++ {
			r := BlockLen + i
			lo, hi := int(tw.rowptr[r]&mask), int(tw.rowptr[r+1]&mask)
			if hi > lo {
				wild := uint32(tw.a.cols + 1) // inside x's padding
				for _, c := range cases {
					tw.reset()
					tw.both(func(m *Matrix) {
						el := m.elems()
						m.colIdx[lo] = m.colIdx[lo]&^el.Mask() | wild
						switch es {
						case SECDED128:
							el.Encode(lo&^1, lo&^1+2)
						case CRC32C:
							el.EncodeRun(lo, hi-lo)
						default:
							el.Encode(lo, lo+1)
						}
					})
					tw.run(t, fmt.Sprintf("%s wild column in row %d", name, r), c)
				}
			}
			for _, c := range cases {
				tw.reset()
				tw.both(func(m *Matrix) {
					m.rowptr[r] = m.rowptr[r]&^mask | (tw.rowptr[r+1]&mask + 1)
					m.rowGroups().Encode(r / rs.RowPtrGroup())
				})
				tw.run(t, fmt.Sprintf("%s row pointer %d past row %d's end", name, r, r), c)
			}
		}
	}
}

// TestCSRBlockSharedGroupCarry strikes the row-pointer group holding the
// pointer two blocks share, in shared mode: the correction is never
// committed, so the second block must take that pointer from the first
// block's decode, not from storage. The product equals the clean one,
// the group is corrected once per sweep, and storage keeps the flip.
func TestCSRBlockSharedGroupCarry(t *testing.T) {
	plain := blockCSR(t)
	for _, rs := range []Scheme{SECDED64, SECDED128, CRC32C} {
		for _, es := range Schemes {
			m, err := NewMatrix(plain, MatrixOptions{ElemScheme: es, RowPtrScheme: rs})
			if err != nil {
				t.Fatal(err)
			}
			var c Counters
			m.SetCounters(&c)
			m.SetReadMode(ModeShared)
			x := VectorFromSlice(randSlice(rand.New(rand.NewSource(5)), plain.Cols32()), None)
			clean, dst := NewVector(m.Rows(), None), NewVector(m.Rows(), None)
			if err := m.Apply(clean, x, 1); err != nil {
				t.Fatal(err)
			}
			before, stored := c.Snapshot(), m.rowptr[BlockLen]
			grp := BlockLen / rs.RowPtrGroup()
			for bit := 0; bit < 28; bit += 3 {
				c = Counters{}
				m.rowptr[BlockLen] ^= 1 << uint(bit)
				for sweep := 1; sweep <= 2; sweep++ {
					if err := m.Apply(dst, x, 1); err != nil {
						t.Fatalf("%v/%v group %d bit %d: %v", es, rs, grp, bit, err)
					}
					if !reflect.DeepEqual(dst.Raw(), clean.Raw()) {
						t.Fatalf("%v/%v group %d bit %d: product differs from the clean one", es, rs, grp, bit)
					}
					if got := c.Snapshot(); got.Corrected != uint64(sweep) || got.Checks != uint64(sweep)*before.Checks {
						t.Fatalf("%v/%v group %d bit %d sweep %d: counters %+v, clean sweep %+v", es, rs, grp, bit, sweep, got, before)
					}
				}
				if m.rowptr[BlockLen] == stored {
					t.Fatalf("%v/%v group %d bit %d: a shared-mode product committed its correction", es, rs, grp, bit)
				}
				m.rowptr[BlockLen] ^= 1 << uint(bit)
			}
		}
	}
}

// FuzzCSRBlockOracle holds the product to the per-row oracle as
// TestCSRBlockMatchesPerRowOracle does, with one to three bits struck
// anywhere in the stored values, column indices and row pointers of
// blockCSR, under a fuzzer-chosen scheme pair and case.
func FuzzCSRBlockOracle(f *testing.F) {
	f.Add(uint8(0), uint16(0), uint8(0), uint32(72), uint32(0), uint32(0))
	f.Add(uint8(13), uint16(41), uint8(1), uint32(700), uint32(701), uint32(0))
	f.Add(uint8(19), uint16(7), uint8(2), uint32(5000), uint32(95), uint32(3))
	f.Add(uint8(24), uint16(70), uint8(0), uint32(6500), uint32(0), uint32(0))
	pairs, cases := allSchemePairs(), blockCases()
	f.Fuzz(func(t *testing.T, pair uint8, cas uint16, flips uint8, b0, b1, b2 uint32) {
		es, rs := pairs[int(pair)%len(pairs)][0], pairs[int(pair)%len(pairs)][1]
		c := cases[int(cas)%len(cases)]
		tw := newCSRTwin(t, blockCSR(t), es, rs)
		elemBits := 96 * len(tw.vals)
		total := uint32(elemBits + 32*len(tw.rowptr))
		bits := []uint32{b0 % total, b1 % total, b2 % total}[:1+int(flips)%3]
		tw.reset()
		tw.both(func(m *Matrix) {
			for _, b := range bits {
				if b := int(b); b < elemBits {
					strikeElems(m.vals, m.colIdx, b/96, b%96)
				} else {
					m.rowptr[(b-elemBits)/32] ^= 1 << uint(b%32)
				}
			}
		})
		tw.run(t, fmt.Sprintf("elements %v row pointers %v struck at %v", es, rs, bits), c)
	})
}
