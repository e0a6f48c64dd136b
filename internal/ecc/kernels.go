package ecc

import (
	"math"
	"math/bits"
)

// The by-value SECDED kernels: the clean path of every protected read and
// write. A word kernel takes its codeword in registers, folds it through
// the codec's kernel tables — the wide tables of the vector word or the
// element layout (wide.go), a fixed-size view of the byte tables
// otherwise — and returns the accumulator, zero exactly when the
// codeword is clean. A fold kernel tests a whole span where it is stored
// — a vector block, an element run, a row-pointer window — with one
// table fold of the XOR of its codewords and a parity test per codeword
// (below). A caller that sees a non-zero result rebuilds each codeword
// as a Word4 and calls Check, which is where correction, detection and
// the position of the flipped bit come from; the kernels decide nothing.
//
// One word kernel exists per codeword width the repository stores (64,
// 96, 128, 192 and 256 bits) and each may only be called on a codec of
// that width: the tables of any other width are nil. No structure checks
// a lone 64-bit codeword on its clean path, so that width has only an
// encoder (Check's accumulator folds it in acc). Encode64 and
// Acc96/Encode96 serve every layout of their width; the block and run
// kernels of those widths (FoldBlock64, EncodeBlock64, FoldRun96) only
// the vector word and the element layout, whose wide tables they fold
// through, and FoldGroups64 only a 64-bit layout without them (the row
// pointers').

// lane is the eight byte tables one 64-bit word of a codeword folds
// through.
type lane = [8][256]uint16

// fold8 folds the eight bytes of x through t. It is kept just inside the
// compiler's inlining budget, so the word check kernels and the block
// encoders below are leaf functions with no call in them (a word encoder
// wider than 64 bits calls its check kernel: those run when a matrix is
// built, not when it is read). The fold kernels inline it too, but are
// not leaves: at GOAMD64=v1 each bits.OnesCount64 tests the CPU's
// POPCNT feature and keeps a call to the portable count on the branch
// not taken (DESIGN.md section 45).
func fold8(t *lane, x uint64) uint16 {
	return t[0][byte(x)] ^ t[1][byte(x>>8)] ^ t[2][byte(x>>16)] ^ t[3][byte(x>>24)] ^
		t[4][byte(x>>32)] ^ t[5][byte(x>>40)] ^ t[6][byte(x>>48)] ^ t[7][byte(x>>56)]
}

// Acc96 returns the accumulator of the 96-bit codeword x | y<<64 (the
// low 32 bits of y). A 96-bit layout other than the element's (a test's)
// folds through the byte tables.
func (c *SECDED) Acc96(x, y uint64) uint16 {
	if t := c.elem; t != nil {
		return uint16(t.acc(x, uint32(y)))
	}
	return c.accBytes(&Word4{x, y})
}

// Acc128 returns the accumulator of the 128-bit codeword x | y<<64.
func (c *SECDED) Acc128(x, y uint64) uint16 {
	t := c.t16
	return fold8((*lane)(t[:8]), x) ^ fold8((*lane)(t[8:]), y)
}

// Acc192 returns the accumulator of the 192-bit codeword x | y<<64 |
// z<<128.
func (c *SECDED) Acc192(x, y, z uint64) uint16 {
	t := c.t24
	return fold8((*lane)(t[:8]), x) ^ fold8((*lane)(t[8:16]), y) ^ fold8((*lane)(t[16:]), z)
}

// Acc256 returns the accumulator of the 256-bit codeword x | y<<64 |
// z<<128 | v<<192.
func (c *SECDED) Acc256(x, y, z, v uint64) uint16 {
	t := c.t32
	return fold8((*lane)(t[:8]), x) ^ fold8((*lane)(t[8:16]), y) ^
		fold8((*lane)(t[16:24]), z) ^ fold8((*lane)(t[24:]), v)
}

// The fold kernels are the clean test of a span of codewords where they
// lie: a vector block of eight words (one 64-byte cache line), a run of
// (value, column) elements, a window of row-pointer groups. The code is
// linear, so the accumulator of the XOR of the span's codewords is the
// XOR of their accumulators: one table fold tests the whole span. A
// clean codeword has even weight (the accumulator's parity is the
// codeword's), so each kernel also ORs every codeword's weight parity
// into its result. The result is zero when every codeword of the span is
// clean. It is non-zero when any codeword has odd weight, which covers
// every pattern of at most three flips in the span and one flip in each
// of any number of codewords. It reads zero on a dirty span only when
// two or more codewords each carry an even number (at least two) of
// flips and their accumulators cancel: the same two bits struck in two
// codewords, for one. A caller that sees a non-zero result checks the
// span's codewords one at a time.

// FoldBlock64 is the clean test of a vector block of eight 64-bit vector
// words.
func (c *SECDED) FoldBlock64(w *[8]uint64) uint16 {
	x := w[0] ^ w[1] ^ w[2] ^ w[3] ^ w[4] ^ w[5] ^ w[6] ^ w[7]
	odd := bits.OnesCount64(w[0]) | bits.OnesCount64(w[1]) | bits.OnesCount64(w[2]) | bits.OnesCount64(w[3]) |
		bits.OnesCount64(w[4]) | bits.OnesCount64(w[5]) | bits.OnesCount64(w[6]) | bits.OnesCount64(w[7])
	return uint16(c.vec.acc(x)) | uint16(odd&1)
}

// FoldBlock128 is FoldBlock64 for a block of four 128-bit codewords,
// (w[0], w[1]) through (w[6], w[7]).
func (c *SECDED) FoldBlock128(w *[8]uint64) uint16 {
	x, y := w[0]^w[2]^w[4]^w[6], w[1]^w[3]^w[5]^w[7]
	odd := bits.OnesCount64(w[0]^w[1]) | bits.OnesCount64(w[2]^w[3]) |
		bits.OnesCount64(w[4]^w[5]) | bits.OnesCount64(w[6]^w[7])
	return fold8((*lane)(c.t16[:8]), x) ^ fold8((*lane)(c.t16[8:]), y) | uint16(odd&1)
}

// FoldRun96 is the clean test of a run of 96-bit (value, column)
// codewords — entry k is vals[k] with cols[k]; a CSR row or output
// block, a SELL-C-sigma slice. cols must be as long as vals.
func (c *SECDED) FoldRun96(vals []float64, cols []uint32) uint16 {
	var x uint64
	var y uint32
	var odd int
	cols = cols[:len(vals)]
	for k, v := range vals {
		b := math.Float64bits(v)
		x ^= b
		y ^= cols[k]
		odd |= bits.OnesCount64(b ^ uint64(cols[k]))
	}
	return uint16(c.elem.acc(x, y)) | uint16(odd&1)
}

// FoldRun192 is FoldRun96 for the 192-bit codewords formed by
// consecutive pairs of entries (2t and 2t+1, packed by Pair192). vals
// and cols must be equally long and hold whole pairs.
func (c *SECDED) FoldRun192(vals []float64, cols []uint32) uint16 {
	var v0, v1 uint64
	var c0, c1 uint32
	var odd int
	cols = cols[:len(vals)]
	for k := 0; k+1 < len(vals); k += 2 {
		a, b := math.Float64bits(vals[k]), math.Float64bits(vals[k+1])
		v0, v1, c0, c1 = v0^a, v1^b, c0^cols[k], c1^cols[k+1]
		odd |= bits.OnesCount64(a ^ b ^ uint64(cols[k]^cols[k+1]))
	}
	x, y, z := pair192(v0, c0, v1, c1)
	t := c.t24
	return fold8((*lane)(t[:8]), x) ^ fold8((*lane)(t[8:16]), y) ^ fold8((*lane)(t[16:]), z) | uint16(odd&1)
}

// FoldGroups64 is the clean test of a window of 64-bit row-pointer
// codewords: codeword k is e[2k] | e[2k+1]<<32. e must hold whole
// codewords.
func (c *SECDED) FoldGroups64(e []uint32) uint16 {
	var lo, hi uint32
	var odd int
	for i := 0; i+1 < len(e); i += 2 {
		lo, hi = lo^e[i], hi^e[i+1]
		odd |= bits.OnesCount32(e[i] ^ e[i+1])
	}
	return fold8(c.t8, uint64(lo)|uint64(hi)<<32) | uint16(odd&1)
}

// FoldGroups128 is FoldGroups64 for 128-bit codewords of four entries:
// codeword k is e[4k] | e[4k+1]<<32 | e[4k+2]<<64 | e[4k+3]<<96.
func (c *SECDED) FoldGroups128(e []uint32) uint16 {
	var a, b, d, f uint32
	var odd int
	for i := 0; i+3 < len(e); i += 4 {
		a, b, d, f = a^e[i], b^e[i+1], d^e[i+2], f^e[i+3]
		odd |= bits.OnesCount32(e[i] ^ e[i+1] ^ e[i+2] ^ e[i+3])
	}
	return fold8((*lane)(c.t16[:8]), uint64(a)|uint64(b)<<32) ^
		fold8((*lane)(c.t16[8:]), uint64(d)|uint64(f)<<32) | uint16(odd&1)
}

// Pair192 packs two (value, column) entries into the three words of
// their 192-bit codeword: [val0(64) | col0(32) | val1(64) | col1(32)].
func Pair192(v0 float64, c0 uint32, v1 float64, c1 uint32) (x, y, z uint64) {
	return pair192(math.Float64bits(v0), c0, math.Float64bits(v1), c1)
}

// pair192 is Pair192 on the values' bits.
func pair192(v0 uint64, c0 uint32, v1 uint64, c1 uint32) (x, y, z uint64) {
	return v0, uint64(c0) | v1<<32, v1>>32 | uint64(c1)<<32
}

// Encode64 returns the 64-bit codeword carrying the data bits of x: the
// accumulator of x with its redundancy bits cleared is the redundancy.
func (c *SECDED) Encode64(x uint64) uint64 {
	if t := c.vec; t != nil {
		return t.encode(x)
	}
	x &= c.clearMask[0]
	return x | c.place(fold8(c.t8, x), 0)
}

// Encode96 is Encode64 for the 96-bit codeword x | y<<64.
func (c *SECDED) Encode96(x, y uint64) (uint64, uint64) {
	if t := c.elem; t != nil {
		return t.encode(x, uint32(y))
	}
	w := Word4{x, y}
	c.encodeBytes(&w)
	return w[0], w[1]
}

// Encode128 is Encode64 for the 128-bit codeword x | y<<64.
func (c *SECDED) Encode128(x, y uint64) (uint64, uint64) {
	x, y = x&c.clearMask[0], y&c.clearMask[1]
	a := c.Acc128(x, y)
	return x | c.place(a, 0), y | c.place(a, 1)
}

// Encode192 is Encode64 for the 192-bit codeword x | y<<64 | z<<128.
func (c *SECDED) Encode192(x, y, z uint64) (uint64, uint64, uint64) {
	x, y, z = x&c.clearMask[0], y&c.clearMask[1], z&c.clearMask[2]
	a := c.Acc192(x, y, z)
	return x | c.place(a, 0), y | c.place(a, 1), z | c.place(a, 2)
}

// Encode256 is Encode64 for the 256-bit codeword x | y<<64 | z<<128 |
// v<<192.
func (c *SECDED) Encode256(x, y, z, v uint64) (uint64, uint64, uint64, uint64) {
	x, y, z, v = x&c.clearMask[0], y&c.clearMask[1], z&c.clearMask[2], v&c.clearMask[3]
	a := c.Acc256(x, y, z, v)
	return x | c.place(a, 0), y | c.place(a, 1), z | c.place(a, 2), v | c.place(a, 3)
}

// EncodeBlock64 encodes a vector block in one call: dst[i] becomes the
// 64-bit codeword carrying the data bits of src[i].
func (c *SECDED) EncodeBlock64(dst *[8]uint64, src *[8]float64) {
	t := c.vec
	for i, f := range src {
		dst[i] = t.encode(math.Float64bits(f))
	}
}

// EncodeBlock128 is EncodeBlock64 for a block of four 128-bit codewords,
// (dst[0], dst[1]) through (dst[6], dst[7]). Each source word is ANDed
// with keep first: a layout that reserves more bits than the code fills
// (protected zero padding) clears them there.
func (c *SECDED) EncodeBlock128(dst *[8]uint64, src *[8]float64, keep uint64) {
	lo, hi := (*lane)(c.t16[:8]), (*lane)(c.t16[8:])
	for i := 0; i < len(src); i += 2 {
		x := math.Float64bits(src[i]) & keep & c.clearMask[0]
		y := math.Float64bits(src[i+1]) & keep & c.clearMask[1]
		a := fold8(lo, x) ^ fold8(hi, y)
		dst[i], dst[i+1] = x|c.place(a, 0), y|c.place(a, 1)
	}
}
