package ecc

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"unsafe"
)

// The by-value kernels are checked against the guarantee of the code, not
// against the implementation they replaced: a fresh codeword has a zero
// accumulator, every single flip is located and undone, every double flip
// is detected and never "corrected" — over the layouts the repository
// embeds (testLayouts mirrors internal/core/layout.go and internal/coo)
// and over random valid layouts of every width that has a kernel.

// kernelWidths are the codeword widths with a by-value kernel.
var kernelWidths = []int{64, 96, 128, 192, 256}

// accByValue routes w through the by-value accumulator of c's width:
// acc's inline body for a 64-bit codeword, which has no word kernel.
func accByValue(c *SECDED, w *Word4) uint16 {
	switch c.Width() {
	case 64:
		return c.acc(w)
	case 96:
		return c.Acc96(w[0], w[1])
	case 128:
		return c.Acc128(w[0], w[1])
	case 192:
		return c.Acc192(w[0], w[1], w[2])
	default:
		return c.Acc256(w[0], w[1], w[2], w[3])
	}
}

// encodeByValue routes w through the by-value encoder of c's width.
func encodeByValue(c *SECDED, w Word4) Word4 {
	switch c.Width() {
	case 64:
		w[0] = c.Encode64(w[0])
	case 96:
		w[0], w[1] = c.Encode96(w[0], w[1])
	case 128:
		w[0], w[1] = c.Encode128(w[0], w[1])
	case 192:
		w[0], w[1], w[2] = c.Encode192(w[0], w[1], w[2])
	default:
		w[0], w[1], w[2], w[3] = c.Encode256(w[0], w[1], w[2], w[3])
	}
	return w
}

// randomLayout draws a valid layout of the given width: the fewest
// redundancy bits the width needs, or one more, at random positions.
func randomLayout(rng *rand.Rand, width int) []int {
	r := 3
	for width-r > 1<<uint(r-1)-r { // data bits exceed the Hamming capacity
		r++
	}
	r += rng.Intn(2)
	pos := rng.Perm(width)[:r]
	for i := range pos { // insertion sort: r is at most ten
		for j := i; j > 0 && pos[j] < pos[j-1]; j-- {
			pos[j], pos[j-1] = pos[j-1], pos[j]
		}
	}
	return pos
}

// checkFlips asserts the SECDED guarantee on one codeword of c for the
// flip set given: none, one or two distinct bit positions.
func checkFlips(t *testing.T, name string, c *SECDED, orig Word4, flips ...int) {
	t.Helper()
	w := orig
	for _, b := range flips {
		w.Flip(b)
	}
	struck := w
	checkSameAccumulator(t, name, c, &w)
	a := accByValue(c, &w)
	res, bit := c.Check(&w)
	switch len(flips) {
	case 0:
		if a != 0 || res != OK || bit != -1 || w != orig {
			t.Fatalf("%s: clean codeword: accumulator %#x, Check (%v, %d)", name, a, res, bit)
		}
	case 1:
		if a == 0 || res != Corrected || bit != flips[0] || w != orig {
			t.Fatalf("%s: flip %d: accumulator %#x, Check (%v, %d), restored %v", name, flips[0], a, res, bit, w == orig)
		}
	default:
		if a == 0 || res != Detected || bit != -1 || w != struck {
			t.Fatalf("%s: flips %v: accumulator %#x, Check (%v, %d), word touched %v", name, flips, a, res, bit, w != struck)
		}
	}
}

// checkLayout runs the guarantee over one layout: clean words, every
// single flip, and every double flip when allPairs is set or a seeded
// sample of them otherwise.
func checkLayout(t *testing.T, rng *rand.Rand, name string, c *SECDED, words, sampledPairs int, allPairs bool) {
	t.Helper()
	width := c.Width()
	for trial := 0; trial < words; trial++ {
		orig := randWord(rng, c)
		enc := orig
		c.Encode(&enc)
		if byValue := encodeByValue(c, orig); byValue != enc {
			t.Fatalf("%s: by-value encode %x, Encode %x", name, byValue, enc)
		}
		// Random words, redundancy bits included: the two routes to the
		// accumulator must agree on dirty words too.
		checkSameAccumulator(t, name, c, &orig)
		checkFlips(t, name, c, enc)
		for b := 0; b < width; b++ {
			checkFlips(t, name, c, enc, b)
		}
		if allPairs {
			for b1 := 0; b1 < width; b1++ {
				for b2 := b1 + 1; b2 < width; b2++ {
					checkFlips(t, name, c, enc, b1, b2)
				}
			}
		}
	}
	orig := randWord(rng, c)
	c.Encode(&orig)
	for i := 0; i < sampledPairs; i++ {
		b1, b2 := rng.Intn(width), rng.Intn(width-1)
		if b2 >= b1 {
			b2++
		}
		checkFlips(t, name, c, orig, b1, b2)
	}
}

// checkSameAccumulator asserts that the word kernel's accumulator of w is
// the (syndrome, overall parity) pair Syndrome reports for it.
func checkSameAccumulator(t *testing.T, name string, c *SECDED, w *Word4) {
	t.Helper()
	a := accByValue(c, w)
	syn, par := c.Syndrome(w)
	if int(a)&^(1<<uint(c.CheckBits()-1)) != syn || uint64(bits.OnesCount16(a)&1) != par {
		t.Fatalf("%s: word %x: word kernel accumulator %#x disagrees with Syndrome (%#x, %d)", name, *w, a, syn, par)
	}
}

// TestSECDEDWordKernelsGuarantee is the property test: the embedded
// layouts and fifty random layouts per width; single flips exhaustive for
// every width, double flips exhaustive for 64-bit codewords and 20,000
// sampled pairs per layout for the wider ones.
func TestSECDEDWordKernelsGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	pairs := 20000
	if testing.Short() {
		pairs = 2000
	}
	for _, l := range testLayouts {
		c := MustSECDED(l.width, l.checkPos)
		checkLayout(t, rng, l.name, c, 4, pairs, l.width == 64)
	}
	for _, width := range kernelWidths {
		for i := 0; i < 50; i++ {
			pos := randomLayout(rng, width)
			c, err := NewSECDED(width, pos)
			if err != nil {
				t.Fatalf("random layout %d %v rejected: %v", width, pos, err)
			}
			checkLayout(t, rng, "random", c, 2, pairs/10, width == 64)
		}
	}
}

// TestSECDEDWidthsWithoutKernel keeps the same guarantee on codewords no
// by-value kernel serves (the classic (72,64) code, an odd 39-bit one):
// Check and Encode fold those through the table slice.
func TestSECDEDWidthsWithoutKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, width := range []int{39, 72} {
		for i := 0; i < 10; i++ {
			c := MustSECDED(width, randomLayout(rng, width))
			orig := randWord(rng, c)
			c.Encode(&orig)
			if res, bit := c.Check(&orig); res != OK || bit != -1 {
				t.Fatalf("width %d: clean codeword reported (%v, %d)", width, res, bit)
			}
			for b1 := 0; b1 < width; b1++ {
				w := orig
				w.Flip(b1)
				if res, bit := c.Check(&w); res != Corrected || bit != b1 || w != orig {
					t.Fatalf("width %d: flip %d reported (%v, %d)", width, b1, res, bit)
				}
				for b2 := b1 + 1; b2 < width; b2++ {
					w := orig
					w.Flip(b1)
					w.Flip(b2)
					if res, _ := c.Check(&w); res != Detected {
						t.Fatalf("width %d: flips (%d,%d) reported %v", width, b1, b2, res)
					}
				}
			}
		}
	}
}

// TestSECDEDBlockAndRunKernels pins the block encoders to the word
// encoders, and the fold kernels on what they encode: a clean block or
// run, and an empty run, read zero (fold_test.go holds the fold kernels'
// flip tests).
func TestSECDEDBlockAndRunKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vec64 := MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	vec128 := MustSECDED(128, []int{0, 1, 2, 3, 4, 64, 65, 66, 67})
	elem64 := MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})
	elem128 := MustSECDED(192, []int{88, 89, 90, 91, 92, 184, 185, 186, 187})
	for trial := 0; trial < 50; trial++ {
		var data, blk64, blk128 [8]uint64
		var src [8]float64
		for i := range data {
			data[i] = rng.Uint64()
			src[i] = math.Float64frombits(data[i])
		}
		const keep = ^uint64(0x1F)
		vec64.EncodeBlock64(&blk64, &src)
		vec128.EncodeBlock128(&blk128, &src, keep)
		for i, x := range data {
			if blk64[i] != vec64.Encode64(x) {
				t.Fatalf("EncodeBlock64 word %d: %x, Encode64 %x", i, blk64[i], vec64.Encode64(x))
			}
		}
		for g := 0; g < 4; g++ {
			if x, y := vec128.Encode128(data[2*g]&keep, data[2*g+1]&keep); blk128[2*g] != x || blk128[2*g+1] != y {
				t.Fatalf("EncodeBlock128 pair %d: %x %x, Encode128 %x %x", g, blk128[2*g], blk128[2*g+1], x, y)
			}
		}
		if vec64.FoldBlock64(&blk64) != 0 || vec128.FoldBlock128(&blk128) != 0 {
			t.Fatal("clean block reads dirty")
		}

		// A run of six (value, column) entries: three pairs.
		vals := make([]float64, 6)
		cols := make([]uint32, 6)
		cols128 := make([]uint32, 6)
		for k := range vals {
			vals[k] = rng.NormFloat64()
			col := uint32(rng.Intn(1 << 24))
			_, y := elem64.Encode96(math.Float64bits(vals[k]), uint64(col))
			cols[k], cols128[k] = uint32(y), col
		}
		for k := 0; k < 6; k += 2 {
			_, y, z := elem128.Encode192(Pair192(vals[k], cols128[k], vals[k+1], cols128[k+1]))
			cols128[k], cols128[k+1] = uint32(y), uint32(z>>32)
		}
		if elem64.FoldRun96(vals, cols) != 0 || elem128.FoldRun192(vals, cols128) != 0 {
			t.Fatal("clean run reads dirty")
		}
		if elem64.FoldRun96(vals[:0], cols[:0]) != 0 || elem128.FoldRun192(vals[:0], cols128[:0]) != 0 {
			t.Fatal("empty run reads dirty")
		}
	}
}

// TestSECDEDKernelWrongWidthPanics pins the guard the kernel tables
// give: a kernel called on a codec of another width, or a block or run
// kernel called on a layout without wide tables, fails loudly instead of
// folding the wrong bytes.
func TestSECDEDKernelWrongWidthPanics(t *testing.T) {
	vec := MustSECDED(64, vecCheck)
	rowptr := MustSECDED(64, []int{28, 29, 30, 31, 60, 61, 62, 63})
	other96 := MustSECDED(96, []int{0, 1, 2, 3, 4, 5, 6, 7})
	var blk [8]uint64
	var src [8]float64
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"FoldBlock64 on the row-pointer layout", func() { rowptr.FoldBlock64(&blk) }},
		{"EncodeBlock64 on the row-pointer layout", func() { rowptr.EncodeBlock64(&blk, &src) }},
		{"FoldRun96 on another 96-bit layout", func() { other96.FoldRun96([]float64{1}, []uint32{2}) }},
		{"FoldGroups64 on the vector layout", func() { vec.FoldGroups64([]uint32{1, 2}) }},
		{"FoldBlock128 on a 96-bit codec", func() { other96.FoldBlock128(&blk) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// wideLayouts are the two layouts NewSECDED gives wide tables (wide.go).
var wideLayouts = []struct {
	name  string
	width int
	check []int
}{
	{"vector-secded64", 64, vecCheck},
	{"element-secded64", 96, elemCheck},
}

// checkWideAgrees asserts that every route through c's wide tables —
// word kernel, Syndrome, encoder — gives word w the accumulator and the
// codeword the byte tables give it, and that the block or run fold reads
// w dirty exactly when they do. w is the k-th word tried; it takes slot
// k of the block or run, the others are zero (a clean codeword of both
// layouts).
func checkWideAgrees(t *testing.T, name string, c *SECDED, w Word4, k int) {
	t.Helper()
	want := c.accBytes(&w)
	wantEnc := w
	c.encodeBytes(&wantEnc)
	syn, par := c.Syndrome(&w)
	if wantSyn, wantPar := c.split(want); syn != wantSyn || par != wantPar {
		t.Fatalf("%s: word %x: Syndrome (%#x, %d), byte tables (%#x, %d)", name, w, syn, par, wantSyn, wantPar)
	}
	enc := w
	c.Encode(&enc)
	if enc != wantEnc {
		t.Fatalf("%s: word %x: Encode %x, byte tables %x", name, w, enc, wantEnc)
	}
	var got [2]uint16
	var gotEnc Word4
	switch c.Width() {
	case 64:
		var blk, dst [8]uint64
		var src [8]float64
		blk[k%8], src[k%8] = w[0], math.Float64frombits(w[0])
		c.EncodeBlock64(&dst, &src)
		if dst[k%8] != wantEnc[0] || dst[(k+1)%8] != 0 {
			t.Fatalf("%s: word %x in slot %d: EncodeBlock64 %x, byte tables %x", name, w, k%8, dst, wantEnc[0])
		}
		got = [2]uint16{c.acc(&w), c.FoldBlock64(&blk)}
		gotEnc[0] = c.Encode64(w[0])
	default:
		var vals [3]float64
		var cols [3]uint32
		vals[k%3], cols[k%3] = math.Float64frombits(w[0]), uint32(w[1])
		got = [2]uint16{c.Acc96(w[0], w[1]), c.FoldRun96(vals[:], cols[:])}
		gotEnc[0], gotEnc[1] = c.Encode96(w[0], w[1])
	}
	if got[0] != want || (got[1] == 0) != (want == 0) {
		t.Fatalf("%s: word %x: word kernel and block/run fold %#x, byte tables %#x", name, w, got, want)
	}
	if gotEnc != wantEnc {
		t.Fatalf("%s: word %x: by-value encode %x, byte tables %x", name, w, gotEnc, wantEnc)
	}
}

// checkWideFold asserts the fold contract on a block or run of c's
// wide layout holding a in slot i and b in slot j (b alone when the
// slots coincide), the other slots clean: the fold reads zero exactly
// when the byte tables' accumulators of the two XOR to zero and each
// has even weight — both clean, or both even-weight and cancelling, the
// class the fold gives up — and any odd-weight word reads non-zero.
func checkWideFold(t *testing.T, name string, c *SECDED, a, b Word4, i, j int) {
	t.Helper()
	slots := map[int]Word4{i % 8: a, j % 8: b}
	var x uint16
	even := true
	for _, w := range slots {
		acc := c.accBytes(&w)
		x ^= acc
		even = even && bits.OnesCount16(acc)&1 == 0
	}
	var got uint16
	if c.Width() == 64 {
		var blk [8]uint64
		for k, w := range slots {
			blk[k] = w[0]
		}
		got = c.FoldBlock64(&blk)
	} else {
		var vals [8]float64
		var cols [8]uint32
		for k, w := range slots {
			vals[k], cols[k] = math.Float64frombits(w[0]), uint32(w[1])
		}
		got = c.FoldRun96(vals[:], cols[:])
	}
	if (got == 0) != (x == 0 && even) {
		t.Fatalf("%s: words %x in slot %d, %x in slot %d: fold %#x, byte tables XOR %#x, all even weight %v",
			name, a, i%8, b, j%8, got, x, even)
	}
}

// TestSECDEDWideTablesMatchByteTables is the differential test of the
// wide tables against the byte tables they are built from, for both
// layouts: every word of weight one and two (2,016 and 4,560 of them)
// and 100,000 random words, redundancy bits included.
func TestSECDEDWideTablesMatchByteTables(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	random := 100000
	if testing.Short() {
		random = 10000
	}
	for _, l := range wideLayouts {
		c := MustSECDED(l.width, l.check)
		if c.vec == nil && c.elem == nil {
			t.Fatalf("%s: NewSECDED did not give the layout its wide tables", l.name)
		}
		k := 0
		try := func(w Word4) {
			checkWideAgrees(t, l.name, c, w, k)
			k++
		}
		try(Word4{})
		for b1 := 0; b1 < l.width; b1++ {
			var w Word4
			w.Flip(b1)
			try(w)
			for b2 := b1 + 1; b2 < l.width; b2++ {
				w2 := w
				w2.Flip(b2)
				try(w2)
			}
		}
		if want := 1 + l.width + l.width*(l.width-1)/2; k != want {
			t.Fatalf("%s: %d words of weight at most two, want %d", l.name, k, want)
		}
		for i := 0; i < random; i++ {
			try(randWord(rng, c))
		}
	}
}

// TestSECDEDWideTablesSize pins the budget the wide tables were sized
// for: both layouts together inside a 32 KB L1d.
func TestSECDEDWideTablesSize(t *testing.T) {
	const want = 12288 + 18944
	if n := unsafe.Sizeof(vecWide) + unsafe.Sizeof(elemWide); n != want || n > 32<<10 {
		t.Fatalf("wide tables take %d bytes, want %d (at most 32 KB)", n, want)
	}
}

// TestSECDEDKernelsZeroAllocs pins the point of the kernels: nothing on
// the clean path touches the heap. It covers the layouts every hot read
// calls: the vector word and the CSR element (wide tables), and the two
// row-pointer groups (byte tables), which the index-group codec checks a
// window at a time and encodes one group at a time.
func TestSECDEDKernelsZeroAllocs(t *testing.T) {
	vec := MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	elem := MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})
	row64 := MustSECDED(64, []int{28, 29, 30, 31, 60, 61, 62, 63})
	row128 := MustSECDED(128, []int{28, 29, 30, 31, 60, 61, 62, 63, 92})
	words := make([]uint64, 8)
	rows := make([]uint64, 3)
	entries := make([]uint32, 8)
	src := [8]float64{1, 2, 3, 4, 5, 6, 7, 8}
	vals := make([]float64, 5)
	cols := make([]uint32, 5)
	w := Word4{1, 2}
	var sink uint16
	if n := testing.AllocsPerRun(100, func() {
		blk := (*[8]uint64)(words)
		vec.EncodeBlock64(blk, &src)
		sink |= vec.FoldBlock64(blk) | elem.FoldRun96(vals, cols) | elem.Acc96(words[2], words[3])
		sink |= row64.FoldGroups64(entries) | row128.FoldGroups128(entries)
		words[1] = vec.Encode64(words[1])
		words[2], words[3] = elem.Encode96(words[2], words[3])
		sink |= row128.Acc128(rows[1], rows[2])
		rows[0] = row64.Encode64(rows[0])
		rows[1], rows[2] = row128.Encode128(rows[1], rows[2])
		elem.Encode(&w)
		if res, _ := elem.Check(&w); res != OK {
			sink |= 1
		}
	}); n != 0 {
		t.Errorf("by-value kernels allocate %v times per call", n)
	}
	_ = sink
}

// FuzzSECDEDWord checks the same guarantee on a layout, a word and a
// flip set the fuzzer chooses: seed picks the width and draws the layout
// — or picks one of the two layouts with wide tables, whose word and
// Word4 routes must also agree with the byte tables on the struck word,
// and whose block or run fold must keep its contract (zero when every
// word is clean or the words are even-weight and cancel, non-zero on any
// odd-weight word) over the data word and the struck one, and over the
// struck word and a second codeword struck at the same bits — the four
// words are the data, and b1, b2 strike zero, one or two bits
// (positions at or beyond the width strike nothing).
func FuzzSECDEDWord(f *testing.F) {
	f.Add(int64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint16(1000), uint16(1000))
	f.Add(int64(1), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint16(0), uint16(1000))
	f.Add(int64(2), uint64(0x3FF0_0000_0000_0000), uint64(0x00AB_CDEF), uint64(1), uint64(2), uint16(5), uint16(5))
	f.Add(int64(3), uint64(0xBFF8_0000_0000_00A5), uint64(7), uint64(0x7FF0_0000_0000_0000), uint64(3), uint16(63), uint16(64))
	f.Add(int64(4), uint64(1), uint64(2), uint64(3), uint64(4), uint16(255), uint16(0))
	f.Add(int64(5), uint64(0x3FF0_0000_0000_00FF), uint64(0), uint64(0), uint64(0), uint16(3), uint16(1000))
	f.Add(int64(6), uint64(0xC000_0000_0000_0001), uint64(0xFF00_1234), uint64(0), uint64(0), uint16(64), uint16(95))
	f.Fuzz(func(t *testing.T, seed int64, w0, w1, w2, w3 uint64, b1, b2 uint16) {
		rng := rand.New(rand.NewSource(seed))
		var c *SECDED
		var err error
		if i := uint64(seed) % uint64(len(kernelWidths)+len(wideLayouts)); i < uint64(len(kernelWidths)) {
			width := kernelWidths[i]
			c, err = NewSECDED(width, randomLayout(rng, width))
		} else {
			l := wideLayouts[i-uint64(len(kernelWidths))]
			c, err = NewSECDED(l.width, l.check)
		}
		if err != nil {
			t.Fatalf("layout rejected: %v", err)
		}
		width := c.Width()
		w := Word4{w0, w1, w2, w3}
		for i := width; i < 256; i++ {
			w.SetBit(i, 0)
		}
		checkSameAccumulator(t, "fuzz", c, &w)
		enc := encodeByValue(c, w)
		var flips []int
		if int(b1) < width {
			flips = append(flips, int(b1))
		}
		if int(b2) < width && b2 != b1 {
			flips = append(flips, int(b2))
		}
		checkFlips(t, "fuzz", c, enc, flips...)
		if c.vec != nil || c.elem != nil {
			struck := enc
			for _, b := range flips {
				struck.Flip(b)
			}
			checkWideAgrees(t, "fuzz", c, w, int(b1))
			checkWideAgrees(t, "fuzz", c, struck, int(b2))
			// The same flips in a second codeword: two flips make the
			// pair the class the fold gives up, one flip an odd pair.
			other := Word4{w1, w0}
			for i := width; i < 256; i++ {
				other.SetBit(i, 0)
			}
			other = encodeByValue(c, other)
			for _, b := range flips {
				other.Flip(b)
			}
			checkWideFold(t, "fuzz", c, w, struck, int(b1), int(b2))
			checkWideFold(t, "fuzz", c, struck, other, int(b1), int(b1)+1)
		}
	})
}

var benchSink uint16

// BenchmarkSECDEDWord measures the by-value kernels at the granularities
// protected structures call them at, streaming over 4,096 resident
// codewords as a solver does: the check lines time the fold kernels
// over one vector block of eight words, a five-entry
// (value, column) run — a row of the five-point stencil — a forty-entry
// run — a CSR output block of eight such rows — and a window of five
// row-pointer codewords (two 32-bit row pointers each, the window of an
// output block), so every layout a CSR product reads has a line; the
// encode lines time one word, one block, one element and one row-pointer
// word. ns/op is per codeword. Every line must report 0 allocs/op.
func BenchmarkSECDEDWord(b *testing.B) {
	const words = 4096
	rng := rand.New(rand.NewSource(1))
	vec := MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	elem := MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})
	rowptr := MustSECDED(64, []int{28, 29, 30, 31, 60, 61, 62, 63})
	src := make([]float64, words)
	ws := make([]uint64, words)
	rps := make([]uint64, words)
	vals := make([]float64, words)
	cols := make([]uint32, words)
	for i := range ws {
		src[i] = rng.NormFloat64()
		ws[i] = vec.Encode64(math.Float64bits(src[i]))
		vals[i] = rng.NormFloat64()
		_, y := elem.Encode96(math.Float64bits(vals[i]), uint64(rng.Intn(1<<24)))
		cols[i] = uint32(y)
		rps[i] = rowptr.Encode64(rng.Uint64())
	}
	sweep := func(name string, codewords int, fn func() uint16) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var a uint16
			for i := 0; i < b.N; i += codewords {
				a |= fn()
			}
			if a != 0 {
				b.Fatal("clean codewords reported dirty")
			}
			benchSink = a
		})
	}
	sweep("check/block8", words, func() (a uint16) {
		for i := 0; i < words; i += 8 {
			a |= vec.FoldBlock64((*[8]uint64)(ws[i:]))
		}
		return a
	})
	for _, run := range []int{5, 40} {
		runs := words / run
		sweep(fmt.Sprintf("check/run%d", run), runs*run, func() (a uint16) {
			for r := 0; r < runs; r++ {
				a |= elem.FoldRun96(vals[r*run:(r+1)*run], cols[r*run:(r+1)*run])
			}
			return a
		})
	}
	const window = 5
	entries := make([]uint32, 2*words)
	for i, x := range rps {
		entries[2*i], entries[2*i+1] = uint32(x), uint32(x>>32)
	}
	sweep("check/rowptr", words/window*window, func() (a uint16) {
		for i := 0; i+2*window <= len(entries); i += 2 * window {
			a |= rowptr.FoldGroups64(entries[i : i+2*window])
		}
		return a
	})
	sweep("encode/word", words, func() uint16 {
		for i, f := range src {
			ws[i] = vec.Encode64(math.Float64bits(f))
		}
		return 0
	})
	sweep("encode/block8", words, func() uint16 {
		for i := 0; i < words; i += 8 {
			vec.EncodeBlock64((*[8]uint64)(ws[i:]), (*[8]float64)(src[i:]))
		}
		return 0
	})
	sweep("encode/run5", words, func() uint16 {
		for k := 0; k < words; k++ {
			_, y := elem.Encode96(math.Float64bits(vals[k]), uint64(cols[k]))
			cols[k] = uint32(y)
		}
		return 0
	})
	sweep("encode/rowptr", words, func() uint16 {
		for i, x := range rps {
			rps[i] = rowptr.Encode64(x)
		}
		return 0
	})
}
