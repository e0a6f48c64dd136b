// Package ecc implements the error detecting and correcting codes used by
// the ABFT schemes in this repository: single-error-detecting parity (SED),
// single-error-correct double-error-detect Hamming codes (SECDED) embedded
// at arbitrary bit positions of a codeword, and CRC32C checksums with both a
// hardware-accelerated backend (via hash/crc32, which uses the SSE4.2 CRC32
// instruction on amd64) and a pure-software slicing-by-16 backend.
//
// The codes are "embedded": redundancy bits live inside otherwise-unused
// bits of the protected data structures (top bits of 32-bit indices, least
// significant mantissa bits of float64 values), so protection needs no
// additional storage. Higher layers (package core) decide which bits of
// which structure are spare; this package only knows about codewords of up
// to 256 bits: as a [4]uint64 (Word4) for arbitrary layouts and for
// locating and undoing a flip, and — for the widths the repository
// stores — by value, as the words of one codeword, or as a block of eight
// vector words, a run of (value, column) entries or a window of
// row-pointer groups read where they lie and tested with one fold of
// their XOR plus a parity test per codeword (kernels.go; the vector word
// and the CSR element fold through wider tables, wide.go), which is how
// every clean codeword is checked.
//
// CRC32C is usually treated as an error-*detecting* code, but for bounded
// codeword sizes its minimum Hamming distance is known (HD=6 for messages of
// 178..5243 bits, Koopman 2002), which permits correction of small numbers
// of bit flips. FindFlips performs syndrome-search correction for one- and
// two-bit errors.
package ecc
