package ecc

import (
	"hash/crc32"
	"sync"

	"abft/internal/enum"
)

// crc32cPoly is the Castagnoli polynomial in reversed (LSB-first) form.
const crc32cPoly = 0x82F63B78

// Koopman (2002): CRC32C has minimum Hamming distance 6 for codeword
// lengths of 178..5243 bits, so up to five bit flips per codeword are
// guaranteed detectable, and combinations such as 2EC3ED or 1EC4ED are
// achievable within that range.
const (
	// HD6MinBits is the smallest codeword length (data+CRC, in bits) for
	// which CRC32C guarantees Hamming distance 6.
	HD6MinBits = 178
	// HD6MaxBits is the largest codeword length with guaranteed HD 6.
	HD6MaxBits = 5243
	// HD6DetectableFlips is the number of flips always detected at HD 6.
	HD6DetectableFlips = 5
)

// Backend selects the CRC32C implementation.
type Backend int

const (
	// Hardware, the zero value, uses hash/crc32's Castagnoli
	// implementation, which is backed by the SSE4.2 CRC32 instruction on
	// amd64 and the CRC32C instructions on arm64.
	Hardware Backend = iota
	// Software uses this package's pure-Go slicing-by-16 implementation,
	// the fallback the paper uses on platforms without CRC intrinsics.
	Software
)

// Auto is Hardware under the name the parser also accepts.
const Auto = Hardware

var backends = enum.Table[Backend]{Pkg: "ecc", What: "crc backend", Names: [][]string{
	Hardware: {"hardware", "hw", "auto"},
	Software: {"software", "sw"},
}}

func (b Backend) String() string { return backends.String(b) }

// BackendNames returns the backend names as a comma-separated list, for
// error messages and command-line help.
func BackendNames() string { return backends.List() }

// ParseBackend converts a CRC32C backend name to a Backend.
func ParseBackend(s string) (Backend, error) { return backends.Parse(s) }

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// slicing16 holds the 16 lookup tables for the slicing-by-16 algorithm.
// Table 0 is the classic byte-at-a-time table; table k gives the effect of
// a byte followed by k zero bytes.
var slicing16 [16][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		crc := uint32(i)
		for j := 0; j < 8; j++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ crc32cPoly
			} else {
				crc >>= 1
			}
		}
		slicing16[0][i] = crc
	}
	for i := 0; i < 256; i++ {
		crc := slicing16[0][i]
		for k := 1; k < 16; k++ {
			crc = slicing16[0][crc&0xFF] ^ (crc >> 8)
			slicing16[k][i] = crc
		}
	}
	buildSlotTables()
}

// Checksum returns the CRC32C of p using the selected backend. The result
// is identical across backends; Software exists so that the cost of a
// no-intrinsics platform can be measured.
func Checksum(p []byte, b Backend) uint32 {
	if b == Software {
		return updateSoftware(0, p)
	}
	return crc32.Checksum(p, castagnoliTable)
}

// Update continues a CRC32C computation with additional data.
func Update(crc uint32, p []byte, b Backend) uint32 {
	if b == Software {
		return updateSoftware(crc, p)
	}
	return crc32.Update(crc, castagnoliTable, p)
}

// updateSoftware is the slicing-by-16 kernel.
func updateSoftware(crc uint32, p []byte) uint32 {
	crc = ^crc
	for len(p) >= 16 {
		a := uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
		b := uint32(p[4]) | uint32(p[5])<<8 | uint32(p[6])<<16 | uint32(p[7])<<24
		c := uint32(p[8]) | uint32(p[9])<<8 | uint32(p[10])<<16 | uint32(p[11])<<24
		d := uint32(p[12]) | uint32(p[13])<<8 | uint32(p[14])<<16 | uint32(p[15])<<24
		a ^= crc
		crc = slicing16[15][a&0xFF] ^
			slicing16[14][(a>>8)&0xFF] ^
			slicing16[13][(a>>16)&0xFF] ^
			slicing16[12][a>>24] ^
			slicing16[11][b&0xFF] ^
			slicing16[10][(b>>8)&0xFF] ^
			slicing16[9][(b>>16)&0xFF] ^
			slicing16[8][b>>24] ^
			slicing16[7][c&0xFF] ^
			slicing16[6][(c>>8)&0xFF] ^
			slicing16[5][(c>>16)&0xFF] ^
			slicing16[4][c>>24] ^
			slicing16[3][d&0xFF] ^
			slicing16[2][(d>>8)&0xFF] ^
			slicing16[1][(d>>16)&0xFF] ^
			slicing16[0][d>>24]
		p = p[16:]
	}
	for _, b := range p {
		crc = slicing16[0][byte(crc)^b] ^ (crc >> 8)
	}
	return ^crc
}

// rawCRC computes the CRC with zero initial value and no final inversion.
// Because CRC is affine, Checksum(m XOR e) == Checksum(m) XOR rawCRC(e), so
// the syndrome of an error pattern e is rawCRC(e) independent of the data.
func rawCRC(p []byte) uint32 {
	crc := uint32(0)
	for _, b := range p {
		crc = slicing16[0][byte(crc)^b] ^ (crc >> 8)
	}
	return crc
}

// BitSyndromes returns the error syndrome produced by a flip of each bit of
// an n-byte message: entry i is Checksum(m with bit i flipped) XOR
// Checksum(m). Bits are numbered with bit 0 = least significant bit of byte
// 0. The result has 8*nBytes entries.
func BitSyndromes(nBytes int) []uint32 {
	syn := make([]uint32, 8*nBytes)
	// The syndrome of flipping a bit in byte k of an n-byte message equals
	// the raw CRC of a message that has that single bit set. Walking from
	// the last byte backwards lets each step reuse the previous column:
	// prepending is free (leading zeros do not change a zero-init CRC), so
	// compute the single-set-bit CRC for a suffix of increasing length.
	buf := make([]byte, nBytes)
	for k := nBytes - 1; k >= 0; k-- {
		for b := 0; b < 8; b++ {
			buf[k] = 1 << uint(b)
			syn[k*8+b] = rawCRC(buf[k:])
			buf[k] = 0
		}
	}
	return syn
}

// synTable caches per-message-length bit syndromes and their inverse map.
type synTable struct {
	syn []uint32
	byS map[uint32]int
}

var (
	synCacheMu sync.RWMutex
	synCache   = map[int]*synTable{}
)

func syndromesFor(nBytes int) *synTable {
	synCacheMu.RLock()
	t := synCache[nBytes]
	synCacheMu.RUnlock()
	if t != nil {
		return t
	}
	syn := BitSyndromes(nBytes)
	t = &synTable{syn: syn, byS: make(map[uint32]int, len(syn))}
	for i, s := range syn {
		t.byS[s] = i
	}
	synCacheMu.Lock()
	synCache[nBytes] = t
	synCacheMu.Unlock()
	return t
}

// FindFlips attempts to locate the bit flips that explain the given
// syndrome (stored CRC XOR recomputed CRC) for an nBytes-long message. It
// searches single flips first, then pairs, up to maxFlips (1 or 2). The
// returned positions use the BitSyndromes numbering. ok is false when no
// combination within maxFlips explains the syndrome, in which case the
// error is uncorrectable at this search depth.
//
// Correction is only sound while the total number of flips is below the
// code's minimum Hamming distance budget; callers should restrict use to
// codewords within the HD6 range and treat the result as best-effort.
func FindFlips(syndrome uint32, nBytes, maxFlips int) (positions []int, ok bool) {
	if syndrome == 0 {
		return nil, true
	}
	t := syndromesFor(nBytes)
	if i, hit := t.byS[syndrome]; hit {
		return []int{i}, true
	}
	if maxFlips < 2 {
		return nil, false
	}
	for i, s := range t.syn {
		if j, hit := t.byS[syndrome^s]; hit && j > i {
			return []int{i, j}, true
		}
	}
	return nil, false
}
