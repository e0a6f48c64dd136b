package ecc

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// The fold kernels (FoldBlock64 … FoldGroups128) are checked against
// their contract, stated over the byte tables' accumulators of the
// span's codewords: the result is zero exactly when those accumulators
// XOR to zero and each has even weight. So a clean span reads zero,
// every span with at most three flips or with an odd-weight codeword
// reads non-zero, and the one dirty class that reads zero — two or more
// codewords each carrying an even number of flips that cancel — is
// pinned by TestSECDEDFoldChangedClass.

// foldSpan is one stored span of codewords, clean when built, that a
// fold kernel tests where it lies.
type foldSpan struct {
	name  string
	c     *SECDED
	n     int               // codewords
	width int               // bits per codeword
	word  func(i int) Word4 // codeword i as stored
	flip  func(i, bit int)  // flips bit of codeword i in storage
	fold  func() uint16     // the kernel over the whole span
}

// The layouts of internal/core/layout.go the fold kernels serve.
var (
	foldVec64   = MustSECDED(64, vecCheck)
	foldVec128  = MustSECDED(128, []int{0, 1, 2, 3, 4, 64, 65, 66, 67})
	foldElem64  = MustSECDED(96, elemCheck)
	foldElem128 = MustSECDED(192, []int{88, 89, 90, 91, 92, 184, 185, 186, 187})
	foldRow64   = MustSECDED(64, []int{28, 29, 30, 31, 60, 61, 62, 63})
	foldRow128  = MustSECDED(128, []int{28, 29, 30, 31, 60, 61, 62, 63, 92})
)

// blockSpan builds a clean, random vector block whose codeword i is
// words [i*per, (i+1)*per).
func blockSpan(rng *rand.Rand, name string, c *SECDED, per int, fold func(*[8]uint64) uint16) *foldSpan {
	var blk [8]uint64
	for i := 0; i < 8; i += per {
		var w Word4
		for j := 0; j < per; j++ {
			w[j] = rng.Uint64()
		}
		c.Encode(&w)
		copy(blk[i:i+per], w[:per])
	}
	s := &foldSpan{name: name, c: c, n: 8 / per, width: 64 * per}
	s.word = func(i int) (w Word4) {
		copy(w[:per], blk[i*per:(i+1)*per])
		return w
	}
	s.flip = func(i, b int) { blk[i*per+b/64] ^= 1 << uint(b%64) }
	s.fold = func() uint16 { return fold(&blk) }
	return s
}

// runSpan builds a clean run of n (value, column) codewords — n entries
// under the 96-bit layout, n pairs of entries under the 192-bit one.
func runSpan(rng *rand.Rand, c *SECDED, n int) *foldSpan {
	per := c.Width() / 96
	vals := make([]float64, per*n)
	cols := make([]uint32, per*n)
	for k := range vals {
		vals[k] = rng.NormFloat64()
		cols[k] = uint32(rng.Intn(1 << 24))
	}
	s := &foldSpan{c: c, n: n, width: c.Width()}
	if per == 1 {
		s.name = "element-secded64"
		for k := range vals {
			_, y := c.Encode96(math.Float64bits(vals[k]), uint64(cols[k]))
			cols[k] = uint32(y)
		}
		s.word = func(i int) Word4 { return Word4{math.Float64bits(vals[i]), uint64(cols[i])} }
		s.fold = func() uint16 { return c.FoldRun96(vals, cols) }
	} else {
		s.name = "element-secded128"
		for t := 0; t < n; t++ {
			_, y, z := c.Encode192(Pair192(vals[2*t], cols[2*t], vals[2*t+1], cols[2*t+1]))
			cols[2*t], cols[2*t+1] = uint32(y), uint32(z>>32)
		}
		s.word = func(i int) Word4 {
			x, y, z := Pair192(vals[2*i], cols[2*i], vals[2*i+1], cols[2*i+1])
			return Word4{x, y, z}
		}
		s.fold = func() uint16 { return c.FoldRun192(vals, cols) }
	}
	// Bit b of codeword i: the entry's value bits, then its column's.
	s.flip = func(i, b int) {
		k := per*i + b/96
		if b %= 96; b < 64 {
			vals[k] = math.Float64frombits(math.Float64bits(vals[k]) ^ 1<<uint(b))
		} else {
			cols[k] ^= 1 << uint(b-64)
		}
	}
	return s
}

// groupSpan builds a clean window of n row-pointer codewords, each of
// per 32-bit entries.
func groupSpan(rng *rand.Rand, c *SECDED, n int) *foldSpan {
	per := c.Width() / 32
	e := make([]uint32, per*n)
	for i := 0; i < n; i++ {
		var w Word4
		for j := 0; j < per; j++ {
			w[j/2] |= uint64(rng.Uint32()&0x0FFF_FFFF) << (32 * uint(j%2))
		}
		c.Encode(&w)
		for j := 0; j < per; j++ {
			e[per*i+j] = uint32(w[j/2] >> (32 * uint(j%2)))
		}
	}
	s := &foldSpan{name: "rowptr-secded64", c: c, n: n, width: c.Width()}
	s.fold = func() uint16 { return c.FoldGroups64(e) }
	if per == 4 {
		s.name = "rowptr-secded128"
		s.fold = func() uint16 { return c.FoldGroups128(e) }
	}
	s.word = func(i int) (w Word4) {
		for j := 0; j < per; j++ {
			w[j/2] |= uint64(e[per*i+j]) << (32 * uint(j%2))
		}
		return w
	}
	s.flip = func(i, b int) { e[per*i+b/32] ^= 1 << uint(b%32) }
	return s
}

// foldSpans returns one span of every kind: the two vector blocks, the
// two row-pointer windows (one 64-byte line each) and element runs of n
// entries (n/2 pairs under the 192-bit layout, at least one).
func foldSpans(rng *rand.Rand, n int) []*foldSpan {
	return []*foldSpan{
		blockSpan(rng, "vector-secded64", foldVec64, 1, foldVec64.FoldBlock64),
		blockSpan(rng, "vector-secded128", foldVec128, 2, foldVec128.FoldBlock128),
		groupSpan(rng, foldRow64, 8),
		groupSpan(rng, foldRow128, 4),
		runSpan(rng, foldElem64, n),
		runSpan(rng, foldElem128, max(n/2, 1)),
	}
}

// wantZero reports the contract's verdict on the span as stored: whether
// the byte tables' accumulators of its codewords XOR to zero and each
// has even weight.
func (s *foldSpan) wantZero() bool {
	var x uint16
	for i := 0; i < s.n; i++ {
		w := s.word(i)
		a := s.c.accBytes(&w)
		if bits.OnesCount16(a)&1 != 0 {
			return false
		}
		x ^= a
	}
	return x == 0
}

// strike flips the (codeword, bit) pairs in order and returns the fold.
// Flipping the same pairs again restores the span.
func (s *foldSpan) strike(flips ...[2]int) uint16 {
	for _, f := range flips {
		s.flip(f[0], f[1])
	}
	return s.fold()
}

// TestSECDEDFoldClean: a clean span of every kind and length reads zero,
// and so does an empty run or window.
func TestSECDEDFoldClean(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for n := 1; n <= 64; n++ {
		for _, s := range foldSpans(rng, n) {
			if !s.wantZero() || s.fold() != 0 {
				t.Fatalf("%s, %d codewords: clean span reads %#x", s.name, s.n, s.fold())
			}
		}
	}
	if foldElem64.FoldRun96(nil, nil) != 0 || foldElem128.FoldRun192(nil, nil) != 0 ||
		foldRow64.FoldGroups64(nil) != 0 || foldRow128.FoldGroups128(nil) != 0 {
		t.Fatal("an empty span reads dirty")
	}
}

// exhaustive runs every one- and two-flip pattern of the span and
// requires each to read non-zero. only, when non-nil, confines the flips
// to those codewords.
func exhaustive(t *testing.T, s *foldSpan, only []int) {
	t.Helper()
	if only == nil {
		for i := 0; i < s.n; i++ {
			only = append(only, i)
		}
	}
	var pos [][2]int
	for _, i := range only {
		for b := 0; b < s.width; b++ {
			pos = append(pos, [2]int{i, b})
		}
	}
	for x, p := range pos {
		if s.strike(p) == 0 {
			t.Fatalf("%s, %d codewords: flip %v reads clean", s.name, s.n, p)
		}
		for _, q := range pos[x+1:] {
			if s.strike(q) == 0 {
				t.Fatalf("%s, %d codewords: flips %v %v read clean", s.name, s.n, p, q)
			}
			s.flip(q[0], q[1])
		}
		s.flip(p[0], p[1])
	}
	if s.fold() != 0 {
		t.Fatalf("%s: span not restored", s.name)
	}
}

// TestSECDEDFoldFlagsTwoFlips is the exhaustive property test: every
// one- and two-flip pattern of a 512-bit vector block under both
// layouts and of a 512-bit row-pointer window under both, and of
// element runs of 1 to 64 entries under both layouts, reads non-zero.
// Runs up to 16 entries (8 under -short) take every pattern; a longer
// run takes every flip, and every pattern inside its first two, middle
// and last codewords, which holds each way two flips can meet: in one
// codeword, in neighbours, far apart, at either end of the loop.
func TestSECDEDFoldFlagsTwoFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	full := 16
	if testing.Short() {
		full = 8
	}
	for _, s := range foldSpans(rng, 1)[:4] {
		exhaustive(t, s, nil)
	}
	for n := 1; n <= 64; n++ {
		for _, s := range foldSpans(rng, n)[4:] {
			if n <= full {
				exhaustive(t, s, nil)
				continue
			}
			for i := 0; i < s.n; i++ {
				for b := 0; b < s.width; b++ {
					if s.strike([2]int{i, b}) == 0 {
						t.Fatalf("%s, %d codewords: flip (%d, %d) reads clean", s.name, s.n, i, b)
					}
					s.flip(i, b)
				}
			}
			exhaustive(t, s, []int{0, 1, s.n / 2, s.n - 1})
		}
	}
}

// TestSECDEDFoldFlagsThreeFlips: seeded random patterns of three
// distinct flips anywhere in the span read non-zero.
func TestSECDEDFoldFlagsThreeFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	trials := 20000
	if testing.Short() {
		trials = 2000
	}
	for _, n := range []int{1, 2, 5, 40, 64} {
		for _, s := range foldSpans(rng, n) {
			for i := 0; i < trials; i++ {
				var f [3][2]int
				for j := 0; j < len(f); {
					f[j] = [2]int{rng.Intn(s.n), rng.Intn(s.width)}
					if f[j] != f[(j+1)%3] && f[j] != f[(j+2)%3] {
						j++
					}
				}
				if s.strike(f[:]...) == 0 {
					t.Fatalf("%s, %d codewords: flips %v read clean", s.name, s.n, f)
				}
				s.strike(f[:]...)
			}
		}
	}
}

// TestSECDEDFoldColumnFaults: one bit struck in k codewords of a span —
// the shape of a DRAM column fault — reads non-zero for every bit and
// every k: each struck codeword has odd weight. A plain fold, without
// the parity test, misses every even k.
func TestSECDEDFoldColumnFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, s := range foldSpans(rng, 8) {
		for b := 0; b < s.width; b++ {
			for k := 1; k <= s.n; k++ {
				var f [][2]int
				for i := 0; i < k; i++ {
					f = append(f, [2]int{i, b})
				}
				if s.strike(f...) == 0 {
					t.Fatalf("%s: bit %d in %d codewords reads clean", s.name, b, k)
				}
				s.strike(f...)
			}
		}
	}
}

// TestSECDEDFoldChangedClass pins the one class the fold gives up
// against checking each codeword alone: the same two bits struck in two
// codewords (in any even number of them) cancel, and the span reads
// clean, while Check reports each struck codeword Detected. In an odd
// number of codewords the same pair reads non-zero.
func TestSECDEDFoldChangedClass(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for _, s := range foldSpans(rng, 6) {
		pairs := 0
		for b1 := 0; b1 < s.width; b1++ {
			for b2 := b1 + 1; b2 < s.width; b2++ {
				pairs++
				two := [][2]int{{0, b1}, {0, b2}, {1, b1}, {1, b2}}
				if s.strike(two...) != 0 || !s.wantZero() {
					t.Fatalf("%s: bits %d and %d in codewords 0 and 1 read dirty", s.name, b1, b2)
				}
				for i := 0; i < 2; i++ {
					w := s.word(i)
					if res, _ := s.c.Check(&w); res != Detected {
						t.Fatalf("%s: codeword %d with bits %d and %d struck: Check %v", s.name, i, b1, b2, res)
					}
				}
				third := [][2]int{{2, b1}, {2, b2}}
				if s.strike(third...) == 0 {
					t.Fatalf("%s: bits %d and %d in three codewords read clean", s.name, b1, b2)
				}
				s.strike(third...)
				s.strike(two...)
			}
		}
		if want := s.width * (s.width - 1) / 2; pairs != want {
			t.Fatalf("%s: %d pairs, want %d", s.name, pairs, want)
		}
	}
}

// FuzzSECDEDFold checks the contract on a span and a flip pattern the
// fuzzer chooses: kind picks the span (the two vector blocks, the two
// row-pointer windows, an element run of 1 to 64 codewords under either
// layout), seed draws its data, n of f1..f3 strike one to three bits
// anywhere in it, and col strikes bit colBit of every codeword whose bit
// is set in colMask — a column fault. The fold must read zero exactly
// when the per-codeword Check walk finds every codeword clean or the
// pattern is in the named class (every struck codeword has an even
// number of flips, and their accumulators cancel); any pattern of at most
// three flips, and any odd-weight codeword, must read non-zero.
func FuzzSECDEDFold(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(1), uint16(0), uint16(0), uint16(0), uint16(0), uint64(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(3), uint16(5), uint16(700), uint16(6000), uint16(0), uint64(0))
	f.Add(int64(3), uint8(2), uint8(1), uint8(0), uint16(0), uint16(0), uint16(0), uint16(17), uint64(0xFF))
	f.Add(int64(4), uint8(3), uint8(1), uint8(2), uint16(1), uint16(2), uint16(0), uint16(3), uint64(0x3))
	f.Add(int64(5), uint8(4), uint8(40), uint8(2), uint16(64), uint16(3000), uint16(0), uint16(90), uint64(0x5))
	f.Add(int64(6), uint8(5), uint8(64), uint8(3), uint16(1), uint16(190), uint16(4000), uint16(150), uint64(1<<63|1))
	f.Fuzz(func(t *testing.T, seed int64, kind, n, nflips uint8, f1, f2, f3, colBit uint16, colMask uint64) {
		rng := rand.New(rand.NewSource(seed))
		s := foldSpans(rng, 1+int(n)%64)[int(kind)%6]
		flips := map[[2]int]bool{}
		toggle := func(i, b int) {
			p := [2]int{i, b}
			flips[p] = !flips[p]
			s.flip(i, b)
		}
		total := s.n * s.width
		for _, x := range []uint16{f1, f2, f3}[:1+int(nflips)%3] {
			toggle(int(x)%total/s.width, int(x)%s.width)
		}
		for i := 0; i < s.n; i++ {
			if colMask>>uint(i%64)&1 != 0 {
				toggle(i, int(colBit)%s.width)
			}
		}
		perWord := make([]int, s.n)
		struck := 0
		for p, on := range flips {
			if on {
				perWord[p[0]]++
				struck++
			}
		}
		clean, odd := true, false
		for i := 0; i < s.n; i++ {
			w := s.word(i)
			if res, _ := s.c.Check(&w); res != OK {
				clean = false
			}
			odd = odd || perWord[i]%2 == 1
		}
		got := s.fold()
		if (got == 0) != s.wantZero() {
			t.Fatalf("%s: fold %#x, contract says zero %v", s.name, got, s.wantZero())
		}
		if clean && got != 0 {
			t.Fatalf("%s: every codeword clean, fold %#x", s.name, got)
		}
		if (odd || struck > 0 && struck <= 3) && got == 0 {
			t.Fatalf("%s: %d flips (%v per codeword) read clean", s.name, struck, perWord)
		}
	})
}
