package ecc

import (
	"fmt"
	"math/bits"
	"slices"
)

// Wide tables for the two layouts every hot read uses: the 64-bit vector
// word (eight redundancy bits in byte 0, the float64's low mantissa byte)
// and the 96-bit CSR element (a float64 value and a 32-bit column index,
// eight redundancy bits in byte 11, the column's top byte). Both carry
// r = 8 redundancy bits that fill one whole byte, so:
//
//   - the byte table of that byte is the identity (a check bit k < 7
//     contributes its own code 1<<k, which has odd weight; the parity bit
//     contributes 1<<7): a check XORs the stored redundancy byte in as it
//     is, and an encode, whose redundancy byte is cleared, needs no term
//     for it and places the accumulator with one OR;
//   - the accumulator is eight bits, so a table entry is one byte and a
//     table indexed by 11 or 12 data bits is 2 or 4 KB.
//
// The data bits fold in chunks of 11 and 12 bits: five loads for a vector
// word instead of eight, eight for an element instead of twelve. The
// tables of both layouts total 31,232 bytes, inside the 48 KB L1d of the
// reference box. They are process-wide, built once at package
// initialisation from the byte tables of the same code, and shared by
// every codec NewSECDED builds with one of the two layouts. Each entry is
// the XOR of the byte-table contributions of the bits it covers, so the
// accumulator is the byte tables' one, bit for bit.

var (
	vecCheck  = []int{0, 1, 2, 3, 4, 5, 6, 7}
	elemCheck = []int{88, 89, 90, 91, 92, 93, 94, 95}

	vecWide  = newVecTables()
	elemWide = newElemTables()
)

// vecTables folds the 56 data bits of a vector word, bits 8 to 63.
type vecTables struct {
	a, b, c, d [1 << 11]uint8 // bits 8-18, 19-29, 30-40, 41-51
	e          [1 << 12]uint8 // bits 52-63
}

// data returns the accumulator contribution of x's data bits.
func (t *vecTables) data(x uint64) uint8 {
	return t.a[x>>8&0x7FF] ^ t.b[x>>19&0x7FF] ^ t.c[x>>30&0x7FF] ^ t.d[x>>41&0x7FF] ^ t.e[x>>52]
}

// acc returns the accumulator of the vector word x.
func (t *vecTables) acc(x uint64) uint8 { return uint8(x) ^ t.data(x) }

// encode returns the vector word carrying the data bits of x.
func (t *vecTables) encode(x uint64) uint64 {
	x &^= 0xFF
	return x | uint64(t.data(x))
}

// elemTables folds the 88 data bits of an element: the value's 64 bits
// and the column's low 24.
type elemTables struct {
	a, b, c, d, e [1 << 11]uint8 // value bits 0-10, 11-21, 22-32, 33-43, 44-54
	f             [1 << 9]uint8  // value bits 55-63
	g, h          [1 << 12]uint8 // column bits 0-11, 12-23
}

// data returns the accumulator contribution of the value bits x and the
// column bits y.
func (t *elemTables) data(x uint64, y uint32) uint8 {
	return t.a[x&0x7FF] ^ t.b[x>>11&0x7FF] ^ t.c[x>>22&0x7FF] ^ t.d[x>>33&0x7FF] ^
		t.e[x>>44&0x7FF] ^ t.f[x>>55] ^ t.g[y&0xFFF] ^ t.h[y>>12&0xFFF]
}

// acc returns the accumulator of the element codeword (value x, column y).
func (t *elemTables) acc(x uint64, y uint32) uint8 { return uint8(y>>24) ^ t.data(x, y) }

// encode returns the element codeword carrying the data bits of x and y:
// the value is all data, the column's top byte becomes the redundancy.
func (t *elemTables) encode(x uint64, y uint32) (uint64, uint64) {
	y &= 1<<24 - 1
	return x, uint64(y) | uint64(t.data(x, y))<<24
}

// chunk is one wide table and the first codeword bit it covers.
type chunk struct {
	tab []uint8
	lo  int
}

// fillWide builds the byte tables of the layout (width, check) and fills
// every chunk from them. The layout's redundancy must fill byte checkByte
// and its table there must be the identity, which the kernels rely on.
func fillWide(width int, check []int, checkByte int, chunks ...chunk) {
	c, err := newSECDED(width, check)
	if err != nil {
		panic(err)
	}
	for v := range c.tab[checkByte] {
		if c.tab[checkByte][v] != uint16(v) {
			panic(fmt.Sprintf("ecc: byte %d of the %d-bit layout is not its own redundancy", checkByte, width))
		}
	}
	for _, ch := range chunks {
		for v := 1; v < len(ch.tab); v++ {
			p := ch.lo + bits.TrailingZeros(uint(v))
			ch.tab[v] = ch.tab[v&(v-1)] ^ uint8(c.tab[p>>3][1<<uint(p&7)])
		}
	}
}

func newVecTables() (t vecTables) {
	fillWide(64, vecCheck, 0,
		chunk{t.a[:], 8}, chunk{t.b[:], 19}, chunk{t.c[:], 30}, chunk{t.d[:], 41}, chunk{t.e[:], 52})
	return t
}

func newElemTables() (t elemTables) {
	fillWide(96, elemCheck, 11,
		chunk{t.a[:], 0}, chunk{t.b[:], 11}, chunk{t.c[:], 22}, chunk{t.d[:], 33},
		chunk{t.e[:], 44}, chunk{t.f[:], 55}, chunk{t.g[:], 64}, chunk{t.h[:], 76})
	return t
}

// setHot points c at the tables its kernels fold through: the wide
// tables for the two layouts above, the fixed-size view of its byte
// tables matching its width otherwise.
func (c *SECDED) setHot() {
	switch {
	case c.width == 64 && slices.Equal(c.checkPos, vecCheck):
		c.vec = &vecWide
	case c.width == 96 && slices.Equal(c.checkPos, elemCheck):
		c.elem = &elemWide
	case c.nbytes == 8:
		c.t8 = (*[8][256]uint16)(c.tab)
	case c.nbytes == 16:
		c.t16 = (*[16][256]uint16)(c.tab)
	case c.nbytes == 24:
		c.t24 = (*[24][256]uint16)(c.tab)
	case c.nbytes == 32:
		c.t32 = (*[32][256]uint16)(c.tab)
	}
}
