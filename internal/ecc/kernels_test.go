package ecc

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The by-value kernels are checked against the guarantee of the code, not
// against the implementation they replaced: a fresh codeword has a zero
// accumulator, every single flip is located and undone, every double flip
// is detected and never "corrected" — over the layouts the repository
// embeds (testLayouts mirrors internal/core/layout.go and internal/coo)
// and over random valid layouts of every width that has a kernel.

// kernelWidths are the codeword widths with a by-value kernel.
var kernelWidths = []int{64, 96, 128, 192, 256}

// accByValue routes w through the by-value accumulator of c's width.
func accByValue(c *SECDED, w *Word4) uint16 {
	switch c.Width() {
	case 64:
		return c.Acc64(w[0])
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

// TestSECDEDBlockAndRunKernels pins the two wider granularities to the
// word kernel: a block or run accumulator is zero exactly when every
// codeword in it is clean, wherever the struck codeword sits.
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
		if vec64.AccBlock64(&blk64) != 0 || vec128.AccBlock128(&blk128) != 0 {
			t.Fatal("clean block has a non-zero accumulator")
		}
		for bit := 0; bit < 512; bit++ {
			w64, w128 := blk64, blk128
			w64[bit/64] ^= 1 << uint(bit%64)
			w128[bit/64] ^= 1 << uint(bit%64)
			if vec64.AccBlock64(&w64) == 0 || vec128.AccBlock128(&w128) == 0 {
				t.Fatalf("flip of block bit %d left a zero accumulator", bit)
			}
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
		if elem64.AccRun96(vals, cols) != 0 || elem128.AccRun192(vals, cols128) != 0 {
			t.Fatal("clean run has a non-zero accumulator")
		}
		if elem64.AccRun96(vals[:0], cols[:0]) != 0 || elem128.AccRun192(vals[:0], cols128[:0]) != 0 {
			t.Fatal("empty run has a non-zero accumulator")
		}
		for k := range vals {
			for bit := 0; bit < 96; bit++ {
				v, c64, c128 := append([]float64(nil), vals...), append([]uint32(nil), cols...), append([]uint32(nil), cols128...)
				if bit < 64 {
					v[k] = math.Float64frombits(math.Float64bits(v[k]) ^ 1<<uint(bit))
				} else {
					c64[k] ^= 1 << uint(bit-64)
					c128[k] ^= 1 << uint(bit-64)
				}
				if elem64.AccRun96(v, c64) == 0 || elem128.AccRun192(v, c128) == 0 {
					t.Fatalf("flip of bit %d of run entry %d left a zero accumulator", bit, k)
				}
			}
		}
	}
}

// TestSECDEDKernelWrongWidthPanics pins the guard the per-width table
// views give: a kernel called on a codec of another width fails loudly
// instead of folding the wrong bytes.
func TestSECDEDKernelWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Acc64 on a 96-bit codec should panic")
		}
	}()
	MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95}).Acc64(1)
}

// TestSECDEDKernelsZeroAllocs pins the point of the kernels: nothing on
// the clean path touches the heap.
func TestSECDEDKernelsZeroAllocs(t *testing.T) {
	vec := MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	elem := MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})
	words := make([]uint64, 8)
	src := [8]float64{1, 2, 3, 4, 5, 6, 7, 8}
	vals := make([]float64, 5)
	cols := make([]uint32, 5)
	var sink uint16
	if n := testing.AllocsPerRun(100, func() {
		blk := (*[8]uint64)(words)
		vec.EncodeBlock64(blk, &src)
		sink |= vec.AccBlock64(blk) | vec.Acc64(words[0]) | elem.AccRun96(vals, cols)
		words[1] = vec.Encode64(words[1])
	}); n != 0 {
		t.Errorf("by-value kernels allocate %v times per call", n)
	}
	_ = sink
}

// FuzzSECDEDWord checks the same guarantee on a layout, a word and a
// flip set the fuzzer chooses: seed picks the width and draws the layout,
// the four words are the data, and b1, b2 strike zero, one or two bits
// (positions at or beyond the width strike nothing).
func FuzzSECDEDWord(f *testing.F) {
	f.Add(int64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint16(1000), uint16(1000))
	f.Add(int64(1), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), uint16(0), uint16(1000))
	f.Add(int64(2), uint64(0x3FF0_0000_0000_0000), uint64(0x00AB_CDEF), uint64(1), uint64(2), uint16(5), uint16(5))
	f.Add(int64(3), uint64(0xBFF8_0000_0000_00A5), uint64(7), uint64(0x7FF0_0000_0000_0000), uint64(3), uint16(63), uint16(64))
	f.Add(int64(4), uint64(1), uint64(2), uint64(3), uint64(4), uint16(255), uint16(0))
	f.Fuzz(func(t *testing.T, seed int64, w0, w1, w2, w3 uint64, b1, b2 uint16) {
		rng := rand.New(rand.NewSource(seed))
		width := kernelWidths[uint64(seed)%uint64(len(kernelWidths))]
		c, err := NewSECDED(width, randomLayout(rng, width))
		if err != nil {
			t.Fatalf("random layout rejected: %v", err)
		}
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
	})
}

var benchSink uint16

// BenchmarkSECDEDWord measures the by-value kernels at the three
// granularities protected structures call them at — one word, one vector
// block of eight words, one five-entry (value, column) run, a row of the
// five-point stencil — in both directions, streaming over 4,096 resident
// words as a solver does. ns/op is per codeword. Every line must report
// 0 allocs/op.
func BenchmarkSECDEDWord(b *testing.B) {
	const words = 4096
	rng := rand.New(rand.NewSource(1))
	vec := MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	elem := MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})
	src := make([]float64, words)
	ws := make([]uint64, words)
	vals := make([]float64, words)
	cols := make([]uint32, words)
	for i := range ws {
		src[i] = rng.NormFloat64()
		ws[i] = vec.Encode64(math.Float64bits(src[i]))
		vals[i] = rng.NormFloat64()
		_, y := elem.Encode96(math.Float64bits(vals[i]), uint64(rng.Intn(1<<24)))
		cols[i] = uint32(y)
	}
	const run = 5
	runs := words / run
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
	sweep("check/word", words, func() (a uint16) {
		for _, x := range ws {
			a |= vec.Acc64(x)
		}
		return a
	})
	sweep("check/block8", words, func() (a uint16) {
		for i := 0; i < words; i += 8 {
			a |= vec.AccBlock64((*[8]uint64)(ws[i:]))
		}
		return a
	})
	sweep("check/run5", runs*run, func() (a uint16) {
		for r := 0; r < runs; r++ {
			a |= elem.AccRun96(vals[r*run:(r+1)*run], cols[r*run:(r+1)*run])
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
	sweep("encode/run5", runs*run, func() uint16 {
		for k := 0; k < runs*run; k++ {
			_, y := elem.Encode96(math.Float64bits(vals[k]), uint64(cols[k]))
			cols[k] = uint32(y)
		}
		return 0
	})
}
