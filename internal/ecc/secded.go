package ecc

import (
	"fmt"
	"math/bits"
)

// CheckResult classifies the outcome of an integrity check.
type CheckResult int

const (
	// OK means the codeword is clean.
	OK CheckResult = iota
	// Corrected means a single-bit error was found and repaired in place.
	Corrected
	// Detected means an uncorrectable (multi-bit) error was found.
	Detected
)

func (r CheckResult) String() string {
	switch r {
	case OK:
		return "ok"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("CheckResult(%d)", int(r))
	}
}

// SECDED is a single-error-correct, double-error-detect extended Hamming
// code embedded at arbitrary bit positions of a fixed-width codeword.
//
// The codeword has width physical bits. The bits listed in checkPositions
// hold redundancy: the first r-1 of them are Hamming check bits, the last
// is the overall parity bit. Every other bit below width is a data bit.
// Data bits are assigned logical Hamming positions 3,5,6,7,9,... (all
// positions that are not powers of two) in ascending physical order; check
// bit k has logical position 2^k.
//
// Checking and encoding are the hot paths of every protected structure.
// They use byte-sliced lookup tables: each byte of the codeword maps to a
// packed accumulator contribution, so a whole-codeword check is width/8
// table loads and XORs — the software analogue of a hardware ECC H-matrix.
//
// The accumulator of a codeword packs r bits: bits 0..r-2 are the
// positional Hamming syndrome, bit r-1 is the overall parity XOR the
// parity of the syndrome. It is zero exactly when the codeword is clean,
// a single flip leaves it with odd weight and a double flip with even
// non-zero weight; and for a word whose redundancy bits are zero it *is*
// the redundancy, in checkPositions order, so encoding is a check of the
// cleared word plus one placed OR per run of redundancy bits.
//
// The by-value kernels (Acc64 … Acc256, AccBlock64/128, AccRun96/192 and
// the matching encoders, kernels.go) take the codeword in registers or
// where it is stored and are what protected structures call on every
// read; Check and Encode over a *Word4 serve arbitrary layouts and the
// cold path entered once an accumulator is non-zero.
//
// A SECDED value is immutable after construction and safe for concurrent
// use.
type SECDED struct {
	width    int   // physical codeword width in bits
	checkPos []int // physical positions of redundancy bits (last = parity)
	r        int   // number of redundancy bits including overall parity
	dataBits int   // width - r
	nbytes   int   // bytes the codeword occupies

	tab [][256]uint16 // per-byte packed accumulator contributions
	// Fixed-size views of tab for the by-value kernels: constant indices
	// need no bounds checks. Only the view matching the codeword's width
	// is set, so a kernel called on a codec of another width fails on a
	// nil table instead of computing over the wrong bytes.
	t8  *[8][256]uint16
	t12 *[12][256]uint16
	t16 *[16][256]uint16
	t24 *[24][256]uint16
	t32 *[32][256]uint16

	clearMask Word4 // AND-mask clearing every redundancy bit
	// runs[j] places an accumulator's bits into word j of the codeword,
	// one entry per run of redundancy bits that move by the same amount.
	runs      [4][]bitRun
	logToPhys []int // logical position -> physical bit (-1 if unused)
}

// bitRun moves one run of accumulator bits to its place in a codeword
// word: rotate left by rot, keep mask.
type bitRun struct {
	rot  int
	mask uint64
}

// NewSECDED builds a codec for the given physical width (4..256 bits) with
// redundancy embedded at checkPositions. At least 3 redundancy positions
// are required (2 Hamming bits + parity); the positions must be distinct,
// sorted ascending and < width. Returns an error if the redundancy is
// insufficient for the number of data bits.
func NewSECDED(width int, checkPositions []int) (*SECDED, error) {
	if width < 4 || width > 256 {
		return nil, fmt.Errorf("ecc: secded width %d out of range [4,256]", width)
	}
	r := len(checkPositions)
	if r < 3 {
		return nil, fmt.Errorf("ecc: secded needs >=3 check positions, got %d", r)
	}
	if r-1 > 14 {
		return nil, fmt.Errorf("ecc: %d check positions exceed the packed syndrome width", r)
	}
	seen := make(map[int]bool, r)
	prev := -1
	for _, p := range checkPositions {
		if p < 0 || p >= width {
			return nil, fmt.Errorf("ecc: check position %d outside codeword of width %d", p, width)
		}
		if seen[p] {
			return nil, fmt.Errorf("ecc: duplicate check position %d", p)
		}
		if p < prev {
			return nil, fmt.Errorf("ecc: check positions must be sorted ascending")
		}
		seen[p] = true
		prev = p
	}
	hamming := r - 1 // Hamming check bits; the last position is overall parity
	dataBits := width - r
	// Capacity: logical positions run 1..2^hamming-1; positions that are
	// powers of two are check bits, the rest carry data.
	capacity := (1 << uint(hamming)) - 1 - hamming
	if dataBits > capacity {
		return nil, fmt.Errorf("ecc: %d data bits exceed capacity %d of %d hamming bits",
			dataBits, capacity, hamming)
	}

	c := &SECDED{
		width:    width,
		checkPos: append([]int(nil), checkPositions...),
		r:        r,
		dataBits: dataBits,
		nbytes:   (width + 7) / 8,
	}
	for i := 0; i < width; i++ {
		c.clearMask.SetBit(i, 1)
	}
	for i, p := range checkPositions {
		c.clearMask.SetBit(p, 0)
		// Accumulator bit i belongs at bit p&63 of word p>>6. Positions
		// ascend, so bits of one word that move by the same amount are
		// neighbours in the list and share the word's last run.
		runs, rot := c.runs[p>>6], (p&63-i)&63
		if n := len(runs); n > 0 && runs[n-1].rot == rot {
			runs[n-1].mask |= 1 << uint(p&63)
		} else {
			c.runs[p>>6] = append(runs, bitRun{rot: rot, mask: 1 << uint(p&63)})
		}
	}

	// Assign logical positions and per-bit syndrome codes.
	maxLogical := (1 << uint(hamming)) - 1
	c.logToPhys = make([]int, maxLogical+1)
	for i := range c.logToPhys {
		c.logToPhys[i] = -1
	}
	code := make([]uint16, width) // syndrome contribution of each physical bit
	for k := 0; k < hamming; k++ {
		c.logToPhys[1<<uint(k)] = c.checkPos[k]
		code[c.checkPos[k]] = 1 << uint(k)
	}
	// The overall parity bit contributes no syndrome (code 0).
	logical := 3
	for phys := 0; phys < width; phys++ {
		if seen[phys] {
			continue
		}
		for logical&(logical-1) == 0 { // skip powers of two
			logical++
		}
		c.logToPhys[logical] = phys
		code[phys] = uint16(logical)
		logical++
	}

	// Byte-sliced tables: entry v of table j is the packed contribution of
	// byte j holding value v. A set bit contributes its syndrome code and,
	// when that code has even weight, the folded parity bit — so every
	// single-bit contribution has odd weight and the accumulator's own
	// parity is the codeword's overall parity.
	c.tab = make([][256]uint16, c.nbytes)
	for j := 0; j < c.nbytes; j++ {
		for v := 0; v < 256; v++ {
			var acc uint16
			for b := 0; b < 8; b++ {
				phys := j*8 + b
				if phys < width && v&(1<<uint(b)) != 0 {
					acc ^= code[phys] | uint16(^bits.OnesCount16(code[phys])&1)<<uint(hamming)
				}
			}
			c.tab[j][v] = acc
		}
	}
	switch c.nbytes {
	case 8:
		c.t8 = (*[8][256]uint16)(c.tab)
	case 12:
		c.t12 = (*[12][256]uint16)(c.tab)
	case 16:
		c.t16 = (*[16][256]uint16)(c.tab)
	case 24:
		c.t24 = (*[24][256]uint16)(c.tab)
	case 32:
		c.t32 = (*[32][256]uint16)(c.tab)
	}
	return c, nil
}

// MustSECDED is NewSECDED that panics on invalid layout; intended for
// package-level codec construction from constant layouts.
func MustSECDED(width int, checkPositions []int) *SECDED {
	c, err := NewSECDED(width, checkPositions)
	if err != nil {
		panic(err)
	}
	return c
}

// Width returns the physical codeword width in bits.
func (c *SECDED) Width() int { return c.width }

// DataBits returns the number of data bits in the codeword.
func (c *SECDED) DataBits() int { return c.dataBits }

// CheckBits returns the number of redundancy bits including overall parity.
func (c *SECDED) CheckBits() int { return c.r }

// CheckPositions returns the physical redundancy bit positions.
func (c *SECDED) CheckPositions() []int {
	return append([]int(nil), c.checkPos...)
}

// acc returns the accumulator of w: through the by-value kernel of the
// codeword's width when there is one, through the table slice otherwise.
func (c *SECDED) acc(w *Word4) uint16 {
	switch c.nbytes {
	case 8:
		return fold8(c.t8, w[0]) // Acc64's body, one call level less
	case 12:
		return c.Acc96(w[0], w[1])
	case 16:
		return c.Acc128(w[0], w[1])
	case 24:
		return c.Acc192(w[0], w[1], w[2])
	case 32:
		return c.Acc256(w[0], w[1], w[2], w[3])
	}
	var a uint16
	for j := 0; j < c.nbytes; j++ {
		a ^= c.tab[j][byte(w[j>>3]>>uint((j&7)*8))]
	}
	return a
}

// place returns the bits accumulator a contributes to word j of the
// codeword: the redundancy of a word whose redundancy bits were zero.
func (c *SECDED) place(a uint16, j int) uint64 {
	var out uint64
	for _, run := range c.runs[j] {
		out |= bits.RotateLeft64(uint64(a), run.rot) & run.mask
	}
	return out
}

// Encode computes the redundancy bits for the data currently held in w and
// stores them at the check positions, overwriting whatever was there.
// Widths that have a by-value encoder go through it.
func (c *SECDED) Encode(w *Word4) {
	switch c.nbytes {
	case 8:
		w[0] = c.Encode64(w[0])
	case 12:
		w[0], w[1] = c.Encode96(w[0], w[1])
	case 16:
		w[0], w[1] = c.Encode128(w[0], w[1])
	case 24:
		w[0], w[1], w[2] = c.Encode192(w[0], w[1], w[2])
	case 32:
		w[0], w[1], w[2], w[3] = c.Encode256(w[0], w[1], w[2], w[3])
	default:
		for j := range w {
			w[j] &= c.clearMask[j]
		}
		a := c.acc(w)
		for j := range w {
			w[j] |= c.place(a, j)
		}
	}
}

// Syndrome returns the Hamming syndrome and the overall parity of w. For a
// clean codeword both are zero.
func (c *SECDED) Syndrome(w *Word4) (syndrome int, parity uint64) {
	return c.split(c.acc(w))
}

// split unpacks an accumulator into the positional syndrome and the
// overall parity, which is the parity of the accumulator itself.
func (c *SECDED) split(a uint16) (syndrome int, parity uint64) {
	return int(a) &^ (1 << uint(c.r-1)), uint64(bits.OnesCount16(a) & 1)
}

// Check verifies w, correcting a single-bit error in place when possible.
// The returned bit is the physical position of the corrected bit, or -1.
func (c *SECDED) Check(w *Word4) (res CheckResult, bit int) {
	a := c.acc(w)
	if a == 0 {
		return OK, -1
	}
	return c.resolve(w, a)
}

// resolve handles the cold path of Check: something flipped.
func (c *SECDED) resolve(w *Word4, a uint16) (CheckResult, int) {
	syndrome, parity := c.split(a)
	if parity == 1 {
		// Odd number of flips; assume one and correct it.
		if syndrome == 0 {
			// The overall parity bit itself flipped.
			p := c.checkPos[c.r-1]
			w.Flip(p)
			return Corrected, p
		}
		if syndrome < len(c.logToPhys) {
			if p := c.logToPhys[syndrome]; p >= 0 {
				w.Flip(p)
				return Corrected, p
			}
		}
		// Syndrome points at an unused logical position: at least three
		// bits flipped. Uncorrectable.
		return Detected, -1
	}
	// parity == 0 but non-zero syndrome: an even number (>=2) of flips.
	return Detected, -1
}
