package ecc

import "math/bits"

// Parity64 returns the parity (1 if the number of set bits is odd) of x.
func Parity64(x uint64) uint64 {
	return uint64(bits.OnesCount64(x) & 1)
}

// Word4 is the backing store for codewords of up to 256 bits. Bit i of the
// codeword is bit (i%64) of word i/64.
type Word4 [4]uint64

// Bit reports bit i of the codeword.
func (w *Word4) Bit(i int) uint64 {
	return (w[i>>6] >> uint(i&63)) & 1
}

// Flip inverts bit i of the codeword.
func (w *Word4) Flip(i int) {
	w[i>>6] ^= 1 << uint(i&63)
}

// SetBit sets bit i of the codeword to b (0 or 1).
func (w *Word4) SetBit(i int, b uint64) {
	w[i>>6] = (w[i>>6] &^ (1 << uint(i&63))) | (b&1)<<uint(i&63)
}

// Parity returns the parity of the whole codeword.
func (w *Word4) Parity() uint64 {
	return Parity64(w[0] ^ w[1] ^ w[2] ^ w[3])
}
