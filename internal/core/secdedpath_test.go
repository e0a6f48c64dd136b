package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"abft/internal/csr"
	"abft/internal/ecc"
)

// SECDED codewords are checked where they lie, a vector block, an element
// run or a row-pointer window per kernel call (ecc.SECDED.FoldBlock64,
// FoldRun96, FoldGroups64, ...): the span's codewords are XORed, the
// result folded through the tables once, and every codeword's weight
// parity tested (DESIGN.md section 45). Only a non-zero result hands the
// span to the per-codeword resolver. These tests pin what that must not
// have changed — delivered values, storage after the call, the checks /
// corrected / detected totals and the FaultError, for every codeword
// position struck once and twice and for up to three flips across
// codewords, with and without commit — against the per-codeword codecs
// as they stood before, which are kept below as the oracles. Every
// pattern here has at most three flips in a span, so the fold flags each
// one and the outcome is the oracle's; the one class the fold reads
// clean (two or more codewords each with an even number of flips that
// cancel) is pinned in internal/ecc and internal/faults.

// ---------------------------------------------------------------------------
// Oracles: one Word4 and one Check per codeword, in storage order.

// oracleWriteSECDEDBlock is the old SECDED arms of Vector.WriteBlock.
func oracleWriteSECDEDBlock(s Scheme, w []uint64, src *[BlockLen]float64) {
	if s == SECDED64 {
		for i, x := range src {
			cw := ecc.Word4{math.Float64bits(x) &^ 0xFF}
			codecVec64.Encode(&cw)
			w[i] = cw[0]
		}
		return
	}
	for g := 0; g < BlockLen/2; g++ {
		cw := ecc.Word4{math.Float64bits(src[2*g]) &^ 0x1F, math.Float64bits(src[2*g+1]) &^ 0x1F}
		codecVec128.Encode(&cw)
		w[2*g], w[2*g+1] = cw[0], cw[1]
	}
}

// oracleReadSECDEDBlock is the old SECDED arms of Vector.readBlock over
// the storage words w of the block starting at element base.
func oracleReadSECDEDBlock(s Scheme, w []uint64, base int, dst *[BlockLen]float64, commit bool, c *Counters) error {
	if s == SECDED64 {
		for i := range dst {
			cw := ecc.Word4{w[i]}
			switch res, _ := codecVec64.Check(&cw); res {
			case ecc.Corrected:
				if commit {
					w[i] = cw[0]
				}
				c.AddCorrected(1)
			case ecc.Detected:
				c.AddDetected(1)
				return &FaultError{Structure: StructVector, Scheme: s, Index: base + i, Detail: "secded64 double-bit error"}
			}
			dst[i] = math.Float64frombits(cw[0] &^ 0xFF)
		}
		return nil
	}
	for g := 0; g < BlockLen/2; g++ {
		cw := ecc.Word4{w[2*g], w[2*g+1]}
		switch res, _ := codecVec128.Check(&cw); res {
		case ecc.Corrected:
			if commit {
				w[2*g], w[2*g+1] = cw[0], cw[1]
			}
			c.AddCorrected(1)
		case ecc.Detected:
			c.AddDetected(1)
			return &FaultError{Structure: StructVector, Scheme: s, Index: base/2 + g, Detail: "secded128 double-bit error"}
		}
		dst[2*g] = math.Float64frombits(cw[0] &^ 0x1F)
		dst[2*g+1] = math.Float64frombits(cw[1] &^ 0x1F)
	}
	return nil
}

// oracleDecodeSECDEDRowGroup is the old SECDED arms of
// indexGroups.Decode over the storage entries e of group g.
func oracleDecodeSECDEDRowGroup(s Scheme, e []uint32, g int, dst *[8]uint32, commit bool, c *Counters) (corrected bool, err error) {
	codec, cw := codecRow64, ecc.Word4{uint64(e[0]) | uint64(e[1])<<32}
	if s == SECDED128 {
		codec, cw[1] = codecRow128, uint64(e[2])|uint64(e[3])<<32
	}
	switch res, _ := codec.Check(&cw); res {
	case ecc.Corrected:
		corrected = true
		if commit {
			for i := range e {
				e[i] = uint32(cw[i/2] >> (32 * uint(i%2)))
			}
		}
		c.AddCorrected(1)
	case ecc.Detected:
		c.AddDetected(1)
		return false, &FaultError{Structure: StructRowPtr, Scheme: s, Index: g, Detail: "secded double-bit error"}
	}
	for i := range e {
		dst[i] = uint32(cw[i/2]>>(32*uint(i%2))) & rowPtrMask
	}
	return corrected, nil
}

// oracleElems verifies element codewords one at a time: the old
// ColElems.check64 / checkPair, and around them the old per-codeword
// loops of rowVerifier.row and ColElems.Check.
type oracleElems struct {
	el       ColElems
	commit   bool
	c        *Counters
	lastPair int
}

func (o *oracleElems) check64(k int) (bool, error) {
	cw := ecc.Word4{math.Float64bits(o.el.Vals[k]), uint64(o.el.Cols[k])}
	switch res, _ := codecElem64.Check(&cw); res {
	case ecc.Corrected:
		if o.commit {
			o.el.Vals[k], o.el.Cols[k] = math.Float64frombits(cw[0]), uint32(cw[1])
		}
		o.c.AddCorrected(1)
		return true, nil
	case ecc.Detected:
		o.c.AddDetected(1)
		return false, &FaultError{Structure: StructElements, Scheme: SECDED64, Index: k, Detail: "secded64 double-bit error"}
	}
	return false, nil
}

func (o *oracleElems) checkPair(t int) (bool, error) {
	v1 := math.Float64bits(o.el.Vals[2*t+1])
	cw := ecc.Word4{math.Float64bits(o.el.Vals[2*t]),
		uint64(o.el.Cols[2*t]) | v1<<32, v1>>32 | uint64(o.el.Cols[2*t+1])<<32}
	switch res, _ := codecElem128.Check(&cw); res {
	case ecc.Corrected:
		if o.commit {
			o.el.Vals[2*t], o.el.Cols[2*t] = math.Float64frombits(cw[0]), uint32(cw[1])
			o.el.Vals[2*t+1], o.el.Cols[2*t+1] = math.Float64frombits(cw[1]>>32|cw[2]<<32), uint32(cw[2]>>32)
		}
		o.c.AddCorrected(1)
		return true, nil
	case ecc.Detected:
		o.c.AddDetected(1)
		return false, &FaultError{Structure: StructElements, Scheme: SECDED128, Index: t, Detail: "secded128 double-bit error"}
	}
	return false, nil
}

// row is the old rowVerifier.row for the two SECDED schemes.
func (o *oracleElems) row(lo, hi int) (dirty bool, checks uint64, err error) {
	if o.el.Scheme == SECDED64 {
		for k := lo; k < hi; k++ {
			corrected, err := o.check64(k)
			if err != nil {
				return false, uint64(k - lo + 1), err
			}
			if corrected && !o.commit {
				dirty = true
			}
		}
		return dirty, uint64(hi - lo), nil
	}
	if hi > lo {
		t0, last := lo/2, (hi-1)/2
		if t0 == o.lastPair {
			t0++
		}
		memoLast := true
		for t := t0; t <= last; t++ {
			corrected, err := o.checkPair(t)
			if err != nil {
				return false, uint64(t - t0 + 1), err
			}
			if corrected && !o.commit {
				dirty = true
				if t == last {
					memoLast = false
				}
			}
		}
		checks = uint64(last - t0 + 1)
		if memoLast {
			o.lastPair = last
		}
	}
	return dirty, checks, nil
}

// check is the old ColElems.Check for the two SECDED schemes.
func (o *oracleElems) check(lo, hi int) (dirty bool, checks uint64, err error) {
	record := func(corrected bool, ce error) {
		if ce != nil && err == nil {
			err = ce
		}
		if corrected && !o.commit {
			dirty = true
		}
	}
	if o.el.Scheme == SECDED64 {
		for k := lo; k < hi; k++ {
			checks++
			record(o.check64(k))
		}
		return dirty, checks, err
	}
	for t := lo / 2; 2*t < hi; t++ {
		checks++
		record(o.checkPair(t))
	}
	return dirty, checks, err
}

// ---------------------------------------------------------------------------
// Helpers

var secdedSchemes = []Scheme{SECDED64, SECDED128}

// sameFault reports whether two errors are the same outcome: both nil, or
// FaultErrors agreeing on structure, scheme, index and detail.
func sameFault(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var fa, fb *FaultError
	return errors.As(a, &fa) && errors.As(b, &fb) && *fa == *fb
}

func sameCounts(a, b *Counters) bool {
	return a.Corrected() == b.Corrected() && a.Detected() == b.Detected()
}

// flipSets returns the strikes a codeword group of nbits bits made of
// codewords of cwBits bits is tested under: every single flip; for every
// codeword, two flips inside it (neighbouring bits, and the ends of the
// codeword); and seeded pairs anywhere in the group, which mostly land
// in different codewords — two corrections, or a correction before or
// after the codeword that fails.
func flipSets(rng *rand.Rand, nbits, cwBits, sampled int) [][]int {
	var sets [][]int
	for b := 0; b < nbits; b++ {
		sets = append(sets, []int{b})
	}
	for base := 0; base < nbits; base += cwBits {
		sets = append(sets, []int{base, base + cwBits - 1})
		for i := 0; i < 6; i++ {
			b := base + rng.Intn(cwBits-1)
			sets = append(sets, []int{b, b + 1})
		}
		// A double flip here and a single flip in every other codeword.
		for other := 0; other < nbits; other += cwBits {
			if other != base {
				sets = append(sets, []int{base + 3, base + cwBits/2, other + rng.Intn(cwBits)})
			}
		}
	}
	for i := 0; i < sampled; i++ {
		b1, b2 := rng.Intn(nbits), rng.Intn(nbits-1)
		if b2 >= b1 {
			b2++
		}
		sets = append(sets, []int{b1, b2})
	}
	return sets
}

// ---------------------------------------------------------------------------
// Vector blocks

func TestSECDEDBlockEncodeMatchesPerWordOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1, -1}
	for _, s := range secdedSchemes {
		v := NewVector(BlockLen, s)
		for trial := 0; trial < 500; trial++ {
			var src [BlockLen]float64
			for i := range src {
				if rng.Intn(4) == 0 {
					src[i] = special[rng.Intn(len(special))]
				} else {
					src[i] = math.Float64frombits(rng.Uint64())
				}
			}
			var want [BlockLen]uint64
			oracleWriteSECDEDBlock(s, want[:], &src)
			v.WriteBlock(0, &src)
			if got := *(*[BlockLen]uint64)(v.Raw()); got != want {
				t.Fatalf("%v: WriteBlock(%x) stored %x, oracle %x", s, src, got, want)
			}
		}
	}
}

// TestSECDEDBlockFaultParity strikes every bit of a block once, every
// codeword of it twice, and sampled pairs across codewords, and compares
// the block read with the per-word oracle in commit (exclusive) and
// no-commit (shared readers, parallel workers) mode.
func TestSECDEDBlockFaultParity(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, s := range secdedSchemes {
		cwBits := 64 * s.VecGroup()
		v := VectorFromSlice(randSlice(rng, 3*BlockLen), s)
		const blk = 1
		clean := append([]uint64(nil), v.Raw()...)
		for _, flips := range flipSets(rng, 64*BlockLen, cwBits, 300) {
			for _, commit := range []bool{true, false} {
				copy(v.Raw(), clean)
				oracle := append([]uint64(nil), clean...)
				for _, b := range flips {
					v.Raw()[blk*BlockLen+b/64] ^= 1 << uint(b%64)
					oracle[blk*BlockLen+b/64] ^= 1 << uint(b%64)
				}
				var got, want [BlockLen]float64
				var gc, wc Counters
				gerr := v.readBlockCounting(blk, &got, commit, &gc)
				werr := oracleReadSECDEDBlock(s, oracle[blk*BlockLen:(blk+1)*BlockLen], blk*BlockLen, &want, commit, &wc)
				name := fmt.Sprintf("%v flips %v commit %v", s, flips, commit)
				if !sameFault(gerr, werr) {
					t.Fatalf("%s: error %v, oracle %v", name, gerr, werr)
				}
				if gerr == nil && got != want {
					t.Fatalf("%s: delivered %x, oracle %x", name, got, want)
				}
				if !sameCounts(&gc, &wc) {
					t.Fatalf("%s: corrected/detected %d/%d, oracle %d/%d", name,
						gc.Corrected(), gc.Detected(), wc.Corrected(), wc.Detected())
				}
				for i, w := range v.Raw() {
					if w != oracle[i] {
						t.Fatalf("%s: storage word %d is %x, oracle %x", name, i, w, oracle[i])
					}
				}
			}
		}
	}
}

// TestSECDEDVectorKernelParallelParity runs a reduction over struck
// vectors with one worker and two: the result is the clean one bit for
// bit, checks are what a clean pass counts, each struck codeword is one
// correction, and storage is repaired at both worker counts (every block
// belongs to one range, so an exclusive pass commits however it is
// split). A double flip is reported as the codeword it struck, whichever
// worker meets it.
func TestSECDEDVectorKernelParallelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const n = 16 * BlockLen
	for _, s := range secdedSchemes {
		a := VectorFromSlice(randSlice(rng, n), s)
		b := VectorFromSlice(randSlice(rng, n), s)
		var c Counters
		a.SetCounters(&c)
		b.SetCounters(&c)
		clean := append([]uint64(nil), a.Raw()...)
		for _, workers := range []int{1, 2} {
			copy(a.Raw(), clean)
			c = Counters{}
			want, err := Dot(a, b, workers) // partial sums are per worker
			if err != nil {
				t.Fatal(err)
			}
			cleanChecks := c.Checks()
			a.Raw()[3*BlockLen+1] ^= 1 << 40  // first worker's range
			a.Raw()[11*BlockLen+2] ^= 1 << 3  // second worker's range, a check bit
			a.Raw()[12*BlockLen+0] ^= 1 << 63 // and a sign bit
			c = Counters{}
			got, err := Dot(a, b, workers)
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%v workers %d: Dot = %v, %v; clean %v", s, workers, got, err, want)
			}
			if c.Checks() != cleanChecks || c.Corrected() != 3 || c.Detected() != 0 {
				t.Fatalf("%v workers %d: checks %d corrected %d detected %d, want %d 3 0",
					s, workers, c.Checks(), c.Corrected(), c.Detected(), cleanChecks)
			}
			for i, w := range a.Raw() {
				if w != clean[i] {
					t.Fatalf("%v workers %d: storage word %d is %x, want %x", s, workers, i, w, clean[i])
				}
			}

			copy(a.Raw(), clean)
			a.Raw()[11*BlockLen+2] ^= 1<<17 | 1<<44
			c = Counters{}
			_, err = Dot(a, b, workers)
			var fe *FaultError
			if !errors.As(err, &fe) || fe.Structure != StructVector || fe.Index != (11*BlockLen+2)/s.VecGroup() || c.Detected() != 1 {
				t.Fatalf("%v workers %d: double flip reported as %v (detected %d)", s, workers, err, c.Detected())
			}
		}
	}
}

// TestVectorBlockOpsZeroAllocsOnFaultyBlock extends the zero-allocation
// guarantee of the block primitives to the SECDED cold path: a shared
// reader meets the same uncommitted fault on every pass and still
// allocates nothing resolving it.
func TestVectorBlockOpsZeroAllocsOnFaultyBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, s := range secdedSchemes {
		v := VectorFromSlice(randSlice(rng, 8*BlockLen), s)
		var c Counters
		v.SetCounters(&c)
		v.Raw()[3*BlockLen+2] ^= 1 << 29
		var blk [BlockLen]float64
		var err error
		if n := testing.AllocsPerRun(50, func() { err = v.Read(3, 4, blk[:], ModeShared) }); n != 0 || err != nil {
			t.Errorf("%v: a shared Read of a struck block allocates %v times per call (err %v), want 0", s, n, err)
		}
		if c.Corrected() == 0 {
			t.Errorf("%v: the struck block never took the cold path", s)
		}
	}
}

// ---------------------------------------------------------------------------
// CSR rows and element runs

// raggedCSR returns a 16-row matrix whose widths include empty rows and
// odd widths, so SECDED128 pairs straddle row boundaries (and an empty
// row between them) and two workers each own eight rows. The entry count
// is even.
func raggedCSR(t *testing.T) *csr.Matrix {
	t.Helper()
	widths := []int{3, 0, 2, 5, 1, 4, 0, 3, 1, 1, 0, 6, 2, 3, 0, 1}
	rng := rand.New(rand.NewSource(55))
	var entries []csr.Entry
	for r, w := range widths {
		for _, col := range rng.Perm(16)[:w] {
			entries = append(entries, csr.Entry{Row: r, Col: col, Val: rng.NormFloat64()})
		}
	}
	if len(entries)%2 != 0 {
		t.Fatal("raggedCSR must hold an even entry count")
	}
	m, err := csr.New(len(widths), 16, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// strikeElems flips bit b of the 96-bit record of entry k: value bits
// 0..63, then the stored column word.
func strikeElems(vals []float64, cols []uint32, k, b int) {
	if b < 64 {
		vals[k] = math.Float64frombits(math.Float64bits(vals[k]) ^ 1<<uint(b))
	} else {
		cols[k] ^= 1 << uint(b-64)
	}
}

// elemFlipSets strikes every entry of an nnz-entry element array once in
// a value bit, a column data bit and a redundancy bit; twice inside the
// entry; and once each in itself and its storage neighbour (the other
// half of a SECDED128 pair, or the next SECDED64 codeword).
func elemFlipSets(nnz int) [][][2]int {
	var sets [][][2]int
	for k := 0; k < nnz; k++ {
		for _, b := range []int{0, 41, 63, 64, 80, 88, 95} {
			sets = append(sets, [][2]int{{k, b}})
		}
		sets = append(sets, [][2]int{{k, 5}, {k, 70}}, [][2]int{{k, 90}, {k, 91}})
		if k+1 < nnz {
			sets = append(sets, [][2]int{{k, 12}, {k + 1, 66}})
		}
		if k+2 < nnz {
			sets = append(sets, [][2]int{{k, 7}, {k, 8}, {k + 2, 30}}, [][2]int{{k, 30}, {k + 2, 7}, {k + 2, 8}})
		}
	}
	return sets
}

// TestSECDEDRowVerifyFaultParity walks the row verifier over every row
// of the ragged matrix, as a sweep does, for every strike of every
// element codeword, and compares each row's verdict (dirty, checks up to
// and including a failing codeword, the FaultError), the storage left
// behind and the counter totals with the per-codeword oracle.
func TestSECDEDRowVerifyFaultParity(t *testing.T) {
	plain := raggedCSR(t)
	for _, s := range secdedSchemes {
		m, err := NewMatrix(plain, MatrixOptions{ElemScheme: s, RowPtrScheme: None})
		if err != nil {
			t.Fatal(err)
		}
		cleanVals := append([]float64(nil), m.vals...)
		cleanCols := append([]uint32(nil), m.colIdx...)
		for _, flips := range elemFlipSets(m.nnz) {
			for _, commit := range []bool{true, false} {
				copy(m.vals, cleanVals)
				copy(m.colIdx, cleanCols)
				ovals := append([]float64(nil), cleanVals...)
				ocols := append([]uint32(nil), cleanCols...)
				for _, f := range flips {
					strikeElems(m.vals, m.colIdx, f[0], f[1])
					strikeElems(ovals, ocols, f[0], f[1])
				}
				var gc, wc Counters
				m.SetCounters(&gc)
				ver := m.newRowVerifier(commit)
				oracle := oracleElems{el: ColElems{Scheme: s, Vals: ovals, Cols: ocols}, commit: commit, c: &wc, lastPair: -1}
				name := fmt.Sprintf("%v flips %v commit %v", s, flips, commit)
				for r := 0; r < m.rows; r++ {
					lo, hi := int(m.rowptr[r]), int(m.rowptr[r+1])
					gd, gn, gerr := ver.row(r, lo, hi)
					wd, wn, werr := oracle.row(lo, hi)
					if gd != wd || gn != wn || !sameFault(gerr, werr) {
						t.Fatalf("%s row %d: (dirty %v, checks %d, %v), oracle (%v, %d, %v)", name, r, gd, gn, gerr, wd, wn, werr)
					}
					if gerr != nil {
						break // a sweep stops at its first uncorrectable codeword
					}
				}
				if !sameCounts(&gc, &wc) {
					t.Fatalf("%s: corrected/detected %d/%d, oracle %d/%d", name,
						gc.Corrected(), gc.Detected(), wc.Corrected(), wc.Detected())
				}
				for k := range m.vals {
					if math.Float64bits(m.vals[k]) != math.Float64bits(ovals[k]) || m.colIdx[k] != ocols[k] {
						t.Fatalf("%s: storage entry %d differs from the oracle's", name, k)
					}
				}
			}
		}
	}
}

// TestSECDEDElemCheckFaultParity is the same comparison for
// ColElems.Check over a whole storage range — how a SELL-C-sigma slice
// and each scrubSpan of a CSR scrub are verified — which continues past
// uncorrectable codewords and always counts the whole range.
func TestSECDEDElemCheckFaultParity(t *testing.T) {
	plain := raggedCSR(t)
	for _, s := range secdedSchemes {
		m, err := NewMatrix(plain, MatrixOptions{ElemScheme: s, RowPtrScheme: None})
		if err != nil {
			t.Fatal(err)
		}
		cleanVals := append([]float64(nil), m.vals...)
		cleanCols := append([]uint32(nil), m.colIdx...)
		for _, flips := range elemFlipSets(m.nnz) {
			for _, commit := range []bool{true, false} {
				for _, span := range [][2]int{{0, m.nnz}, {4, 14}} {
					el := ColElems{Scheme: s, Vals: append([]float64(nil), cleanVals...), Cols: append([]uint32(nil), cleanCols...)}
					var gc, wc Counters
					oracle := oracleElems{el: ColElems{Scheme: s, Vals: append([]float64(nil), cleanVals...), Cols: append([]uint32(nil), cleanCols...)}, commit: commit, c: &wc}
					for _, f := range flips {
						strikeElems(el.Vals, el.Cols, f[0], f[1])
						strikeElems(oracle.el.Vals, oracle.el.Cols, f[0], f[1])
					}
					gv := el.Check(span[0], span[1], commit, &gc)
					gd, gn, gerr := gv.Dirty, gv.Checks, gv.Err
					wd, wn, werr := oracle.check(span[0], span[1])
					name := fmt.Sprintf("%v flips %v commit %v span %v", s, flips, commit, span)
					if gd != wd || gn != wn || !sameFault(gerr, werr) || !sameCounts(&gc, &wc) {
						t.Fatalf("%s: (dirty %v, checks %d, %v, %d/%d), oracle (%v, %d, %v, %d/%d)", name,
							gd, gn, gerr, gc.Corrected(), gc.Detected(), wd, wn, werr, wc.Corrected(), wc.Detected())
					}
					for k := range el.Vals {
						if math.Float64bits(el.Vals[k]) != math.Float64bits(oracle.el.Vals[k]) || el.Cols[k] != oracle.el.Cols[k] {
							t.Fatalf("%s: storage entry %d differs from the oracle's", name, k)
						}
					}
				}
			}
		}
	}
}

// TestScrubFoldSpan pins the span a CSR scrub folds (scrubSpan). The
// same two bits struck in two element codewords cancel in one fold: in
// one span they read clean, the class DESIGN.md section 7 names. In two
// spans — the first and the last codeword, output blocks apart — the
// scrub reports each Detected and ToCSR refuses the matrix, as a
// per-codeword check would.
func TestScrubFoldSpan(t *testing.T) {
	plain := csr.Laplacian2D(16, 16)
	for _, s := range secdedSchemes {
		g := s.ElemGroup()
		last := plain.NNZ()/g - 1
		for _, tc := range []struct {
			a, b     int
			detected uint64
		}{{0, 1, 0}, {0, last, 2}} {
			m, err := NewMatrix(plain, MatrixOptions{ElemScheme: s, RowPtrScheme: s})
			if err != nil {
				t.Fatal(err)
			}
			if m.nnz != plain.NNZ() {
				t.Fatalf("%v: %d entries stored, %d given", s, m.nnz, plain.NNZ())
			}
			var c Counters
			m.SetCounters(&c)
			for _, cw := range []int{tc.a, tc.b} {
				strikeElems(m.vals, m.colIdx, cw*g, 50)
				strikeElems(m.vals, m.colIdx, cw*g, 62)
			}
			_, err = m.CheckAll()
			if c.Detected() != tc.detected || c.Corrected() != 0 || (err != nil) != (tc.detected != 0) {
				t.Fatalf("%v: bits 50 and 62 in codewords %d and %d: detected %d, corrected %d, %v; want %d detected",
					s, tc.a, tc.b, c.Detected(), c.Corrected(), err, tc.detected)
			}
			if _, err := m.ToCSR(); (err != nil) != (tc.detected != 0) {
				t.Fatalf("%v: codewords %d and %d: ToCSR %v", s, tc.a, tc.b, err)
			}
		}
	}
}

// TestSECDEDApplyModesUnderStrikes drives the whole CSR sweep over the
// ragged matrix in the three ways a codeword can be met — by the
// exclusive owner, by a shared reader, by one of two parallel workers —
// with every element codeword struck once: the product is the clean one
// bit for bit, the sweep counts the checks a clean sweep counts (a
// SECDED128 pair left uncommitted across a row boundary is re-verified by
// the next row, as before), and storage is repaired exactly when the
// sweep could commit. Struck twice, the sweep reports that codeword.
func TestSECDEDApplyModesUnderStrikes(t *testing.T) {
	plain := raggedCSR(t)
	xs := randSlice(rand.New(rand.NewSource(56)), plain.Cols32())
	type mode struct {
		name    string
		read    ReadMode
		workers int
		commits bool
	}
	modes := []mode{{"exclusive", ModeExclusive, 1, true}, {"shared", ModeShared, 1, false}, {"parallel", ModeExclusive, 2, false}}
	// par.Ranges clamps workers to GOMAXPROCS: the parallel mode needs
	// as many runnable threads as it has workers, or it runs one range,
	// which commits.
	procs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(procs)
	for _, s := range secdedSchemes {
		m, err := NewMatrix(plain, MatrixOptions{ElemScheme: s, RowPtrScheme: s})
		if err != nil {
			t.Fatal(err)
		}
		var c Counters
		m.SetCounters(&c)
		x := VectorFromSlice(xs, s)
		dst := NewVector(m.Rows(), s)
		cleanVals := append([]float64(nil), m.vals...)
		cleanCols := append([]uint32(nil), m.colIdx...)
		for _, md := range modes {
			runtime.GOMAXPROCS(max(procs, md.workers))
			m.SetReadMode(md.read)
			copy(m.vals, cleanVals)
			copy(m.colIdx, cleanCols)
			c = Counters{}
			if err := m.Apply(dst, x, md.workers); err != nil {
				t.Fatal(err)
			}
			want := append([]uint64(nil), dst.Raw()...)
			cleanChecks := c.Checks() // two workers both decode the row-pointer group at their boundary
			for k := 0; k < m.nnz; k++ {
				for _, b := range []int{2, 52, 77, 93} {
					copy(m.vals, cleanVals)
					copy(m.colIdx, cleanCols)
					strikeElems(m.vals, m.colIdx, k, b)
					c = Counters{}
					name := fmt.Sprintf("%v %s entry %d bit %d", s, md.name, k, b)
					if err := m.Apply(dst, x, md.workers); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, w := range dst.Raw() {
						if w != want[i] {
							t.Fatalf("%s: product word %d is %x, clean %x", name, i, w, want[i])
						}
					}
					// An uncommitted SECDED128 pair that straddles two rows
					// is verified (and corrected, locally) by both.
					extra := c.Corrected() - 1
					if c.Corrected() == 0 || c.Detected() != 0 || c.Checks() != cleanChecks+extra ||
						(extra != 0 && (md.commits || s != SECDED128)) || extra > 1 {
						t.Fatalf("%s: checks %d (clean %d) corrected %d detected %d", name, c.Checks(), cleanChecks, c.Corrected(), c.Detected())
					}
					repaired := math.Float64bits(m.vals[k]) == math.Float64bits(cleanVals[k]) && m.colIdx[k] == cleanCols[k]
					if repaired != md.commits {
						t.Fatalf("%s: storage repaired %v, want %v", name, repaired, md.commits)
					}
				}
				copy(m.vals, cleanVals)
				copy(m.colIdx, cleanCols)
				strikeElems(m.vals, m.colIdx, k, 9)
				strikeElems(m.vals, m.colIdx, k, 71)
				c = Counters{}
				err := m.Apply(dst, x, md.workers)
				var fe *FaultError
				if !errors.As(err, &fe) || fe.Structure != StructElements || fe.Index != k/s.ElemGroup() || c.Detected() != 1 {
					t.Fatalf("%v %s entry %d struck twice: %v (detected %d)", s, md.name, k, err, c.Detected())
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Row-pointer groups

// TestSECDEDRowGroupFaultParity strikes every bit of a row-pointer group
// once and every codeword twice and compares the group decode with the
// per-codeword oracle, with and without commit.
func TestSECDEDRowGroupFaultParity(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	plain := raggedCSR(t)
	for _, s := range secdedSchemes {
		m, err := NewMatrix(plain, MatrixOptions{ElemScheme: None, RowPtrScheme: s})
		if err != nil {
			t.Fatal(err)
		}
		n := s.RowPtrGroup()
		clean := append([]uint32(nil), m.rowptr...)
		const g = 2
		for _, flips := range flipSets(rng, 32*n, 32*n, 200) {
			for _, commit := range []bool{true, false} {
				copy(m.rowptr, clean)
				oracle := append([]uint32(nil), clean...)
				for _, b := range flips {
					m.rowptr[g*n+b/32] ^= 1 << uint(b%32)
					oracle[g*n+b/32] ^= 1 << uint(b%32)
				}
				var got, want [8]uint32
				var gc, wc Counters
				gcorr, gerr := m.rowGroups().Decode(g, commit, &got, &gc)
				wcorr, werr := oracleDecodeSECDEDRowGroup(s, oracle[g*n:g*n+n], g, &want, commit, &wc)
				name := fmt.Sprintf("%v flips %v commit %v", s, flips, commit)
				if gcorr != wcorr || !sameFault(gerr, werr) || !sameCounts(&gc, &wc) {
					t.Fatalf("%s: (corrected %v, %v, %d/%d), oracle (%v, %v, %d/%d)", name,
						gcorr, gerr, gc.Corrected(), gc.Detected(), wcorr, werr, wc.Corrected(), wc.Detected())
				}
				if gerr == nil && got != want {
					t.Fatalf("%s: decoded %v, oracle %v", name, got, want)
				}
				for i, e := range m.rowptr {
					if e != oracle[i] {
						t.Fatalf("%s: storage entry %d is %x, oracle %x", name, i, e, oracle[i])
					}
				}
			}
		}
	}
}

// TestSECDEDRowPtrEncodeMatchesOracle pins the by-value group encoder to
// the Word4 one it replaced.
func TestSECDEDRowPtrEncodeMatchesOracle(t *testing.T) {
	plain := raggedCSR(t)
	for _, s := range secdedSchemes {
		m, err := NewMatrix(plain, MatrixOptions{ElemScheme: None, RowPtrScheme: s})
		if err != nil {
			t.Fatal(err)
		}
		n := s.RowPtrGroup()
		for g := 0; g*n < len(m.rowptr); g++ {
			e := m.rowptr[g*n : g*n+n]
			codec, cw := codecRow64, ecc.Word4{uint64(e[0]&rowPtrMask) | uint64(e[1]&rowPtrMask)<<32}
			if s == SECDED128 {
				codec, cw[1] = codecRow128, uint64(e[2]&rowPtrMask)|uint64(e[3]&rowPtrMask)<<32
			}
			codec.Encode(&cw)
			for i, x := range e {
				if want := uint32(cw[i/2] >> (32 * uint(i%2))); x != want {
					t.Fatalf("%v group %d entry %d stored %x, oracle %x", s, g, i, x, want)
				}
			}
		}
	}
}
