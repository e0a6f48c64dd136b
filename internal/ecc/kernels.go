package ecc

import "math"

// The by-value SECDED kernels: the clean path of every protected read and
// write. Each takes its codeword in registers (or reads it where it is
// stored), folds it through the codec's kernel tables — the wide tables
// of the vector word or the element layout (wide.go), a fixed-size view
// of the byte tables otherwise — and returns the accumulator, zero
// exactly when the codeword is clean.
// A caller that sees a non-zero accumulator rebuilds the codeword as a
// Word4 and calls Check, which is where correction, detection and the
// position of the flipped bit come from; the kernels decide nothing.
//
// One word kernel exists per codeword width the repository stores (64,
// 96, 128, 192 and 256 bits) and each may only be called on a codec of
// that width: the tables of any other width are nil. Acc64/Encode64 and
// Acc96/Encode96 serve every layout of their width; the block and run
// kernels of those widths (AccBlock64, EncodeBlock64, AccRun96) only the
// vector word and the element layout, whose wide tables they fold
// through.

// lane is the eight byte tables one 64-bit word of a codeword folds
// through.
type lane = [8][256]uint16

// fold8 folds the eight bytes of x through t. It is kept just inside the
// compiler's inlining budget, so the check kernels and the block encoders
// below are leaf functions with no call in them (a word encoder wider
// than 64 bits calls its check kernel: those run when a matrix is built,
// not when it is read).
func fold8(t *lane, x uint64) uint16 {
	return t[0][byte(x)] ^ t[1][byte(x>>8)] ^ t[2][byte(x>>16)] ^ t[3][byte(x>>24)] ^
		t[4][byte(x>>32)] ^ t[5][byte(x>>40)] ^ t[6][byte(x>>48)] ^ t[7][byte(x>>56)]
}

// Acc64 returns the accumulator of the 64-bit codeword x.
func (c *SECDED) Acc64(x uint64) uint16 {
	if t := c.vec; t != nil {
		return uint16(t.acc(x))
	}
	return fold8(c.t8, x)
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

// AccBlock64 checks a vector block of eight 64-bit vector words — one
// 64-byte cache line — in one call: the OR of their accumulators, zero
// exactly when all eight are clean.
func (c *SECDED) AccBlock64(w *[8]uint64) uint16 {
	t := c.vec
	return uint16(t.acc(w[0]) | t.acc(w[1]) | t.acc(w[2]) | t.acc(w[3]) |
		t.acc(w[4]) | t.acc(w[5]) | t.acc(w[6]) | t.acc(w[7]))
}

// AccBlock128 is AccBlock64 for a block of four 128-bit codewords,
// (w[0], w[1]) through (w[6], w[7]).
func (c *SECDED) AccBlock128(w *[8]uint64) uint16 {
	lo, hi := (*lane)(c.t16[:8]), (*lane)(c.t16[8:])
	return (fold8(lo, w[0]) ^ fold8(hi, w[1])) | (fold8(lo, w[2]) ^ fold8(hi, w[3])) |
		(fold8(lo, w[4]) ^ fold8(hi, w[5])) | (fold8(lo, w[6]) ^ fold8(hi, w[7]))
}

// AccRun96 checks a run of 96-bit (value, column) codewords — entry k is
// vals[k] with cols[k]; a CSR row, a SELL-C-sigma slice — in one call and
// returns the OR of their accumulators. cols must be as long as vals.
func (c *SECDED) AccRun96(vals []float64, cols []uint32) uint16 {
	var a uint8
	t := c.elem
	cols = cols[:len(vals)]
	for k, v := range vals {
		a |= t.acc(math.Float64bits(v), cols[k])
	}
	return uint16(a)
}

// AccRun192 is AccRun96 for the 192-bit codewords formed by consecutive
// pairs of entries (2t and 2t+1, packed by Pair192). vals and cols must
// be equally long and hold whole pairs.
func (c *SECDED) AccRun192(vals []float64, cols []uint32) uint16 {
	var a uint16
	t := c.t24
	cols = cols[:len(vals)]
	for k := 0; k+1 < len(vals); k += 2 {
		x, y, z := Pair192(vals[k], cols[k], vals[k+1], cols[k+1])
		a |= fold8((*lane)(t[:8]), x) ^ fold8((*lane)(t[8:16]), y) ^ fold8((*lane)(t[16:]), z)
	}
	return a
}

// Pair192 packs two (value, column) entries into the three words of
// their 192-bit codeword: [val0(64) | col0(32) | val1(64) | col1(32)].
func Pair192(v0 float64, c0 uint32, v1 float64, c1 uint32) (x, y, z uint64) {
	b1 := math.Float64bits(v1)
	return math.Float64bits(v0), uint64(c0) | b1<<32, b1>>32 | uint64(c1)<<32
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
