package ecc

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// In-place checksums of the three codewords whose CRC is interleaved with
// the message: the vector block (eight float64 words, one 64-byte cache
// line, one CRC byte in the low byte of each of the first four), the
// index group (eight 28-bit indices, one CRC nibble in the top nibble of
// each) and the column-element run (n values then n 24-bit column
// indices, one CRC byte in the top byte of each of the last four
// indices).
//
// Serialising such a codeword into a scratch message costs a heap
// allocation per call: hash/crc32 reaches its Castagnoli kernel through a
// function variable, so escape analysis moves any local buffer handed to
// it to the heap. The words themselves already live in storage that
// outlives the call, so the kernel runs over them where they lie and the
// contribution of the interleaved slot bits is removed afterwards with
// the affine identity documented at rawCRC:
//
//	Checksum(message) == Checksum(stored) ^ rawCRC(slot bits in place)
//
// rawCRC is linear, so the right-hand term is one table lookup per slot.
// On encode the slots are zero and the correction vanishes.
//
// A word's in-memory bytes equal its little-endian serialisation only on
// little-endian hosts; elsewhere the portable routines serialise into a
// stack buffer and run the slicing-by-16 kernel, which (unlike hash/crc32)
// does not leak its argument. Both give the Checksum of the serialised
// message, whatever the backend.

// littleEndian reports whether the host stores words least significant
// byte first, i.e. whether storage can be checksummed where it lies.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// blockSlot[i][v] is rawCRC of a 64-byte message that is zero except for
// byte v at offset 8i: the contribution of vector-block slot i.
// groupSlot[i][n] is the same for a 32-byte message and nibble n in the
// high half of the byte at offset 4i+3: the contribution of index-group
// slot i. runSlot[i][v] is rawCRC of byte v followed by 12-4i zero bytes:
// the contribution of element-run slot i, the top byte of the run's
// (n-4+i)-th column index, which ends the message or sits 4, 8 or 12
// bytes before its end whatever the run's length n.
var (
	blockSlot [4][256]uint32
	groupSlot [8][16]uint32
	runSlot   [4][256]uint32
)

// buildSlotTables fills blockSlot, groupSlot and runSlot. rawCRC reads
// slicing16, so crc32c.go's init calls this after building that table
// rather than this file (which sorts first) having an init of its own.
func buildSlotTables() {
	var msg [64]byte
	// only returns rawCRC of a size-byte message holding byte v at offset
	// off and zeros elsewhere; leading zeros leave a zero-initialised
	// register untouched, so the suffix suffices.
	only := func(size, off int, v byte) uint32 {
		msg[off] = v
		crc := rawCRC(msg[off:size])
		msg[off] = 0
		return crc
	}
	for i := range blockSlot {
		for v := range blockSlot[i] {
			blockSlot[i][v] = only(64, 8*i, byte(v))
		}
	}
	for i := range groupSlot {
		for n := range groupSlot[i] {
			groupSlot[i][n] = only(32, 4*i+3, byte(n<<4))
		}
	}
	for i := range runSlot {
		for v := range runSlot[i] {
			runSlot[i][v] = only(16, 3+4*i, byte(v))
		}
	}
}

// BlockChecksum returns, for a stored vector block, the CRC32C of its
// message — the eight words serialised little-endian with the low bytes
// of words 0-3 cleared — and the checksum held in those low bytes (bits
// 8i..8i+7 of the CRC in word i). The block is clean when the two agree.
// The low bytes of words 4-7 are message bytes like any other; a vector
// encodes them as zero. Encoding is the same call on words whose slot
// bytes are zero: OR the returned crc into the slots.
//
// It is one hash/crc32 call over the 64 bytes where they lie and four
// table lookups. w must point into storage that outlives the call (it is
// handed to hash/crc32, so a local array would be moved to the heap).
func BlockChecksum(w *[8]uint64, b Backend) (crc, stored uint32) {
	if !littleEndian {
		return blockChecksumPortable(w)
	}
	s0, s1, s2, s3 := byte(w[0]), byte(w[1]), byte(w[2]), byte(w[3])
	crc = Checksum((*[64]byte)(unsafe.Pointer(w))[:], b) ^
		blockSlot[0][s0] ^ blockSlot[1][s1] ^ blockSlot[2][s2] ^ blockSlot[3][s3]
	stored = uint32(s0) | uint32(s1)<<8 | uint32(s2)<<16 | uint32(s3)<<24
	return crc, stored
}

// blockChecksumPortable is BlockChecksum by serialisation, for hosts whose
// byte order differs from the message's.
func blockChecksumPortable(w *[8]uint64) (crc, stored uint32) {
	var msg [64]byte
	for i, x := range w {
		if i < 4 {
			stored |= uint32(x&0xFF) << (8 * uint(i))
			x &^= 0xFF
		}
		binary.LittleEndian.PutUint64(msg[8*i:], x)
	}
	return updateSoftware(0, msg[:]), stored
}

// GroupChecksum is BlockChecksum for a stored group of eight 32-bit
// indices: the message is the eight entries serialised little-endian with
// their top nibbles cleared, and nibble i of the checksum lives in the top
// nibble of entry i. The same storage requirement applies to e.
func GroupChecksum(e *[8]uint32, b Backend) (crc, stored uint32) {
	if !littleEndian {
		return groupChecksumPortable(e)
	}
	crc = Checksum((*[32]byte)(unsafe.Pointer(e))[:], b)
	for i, x := range e {
		crc ^= groupSlot[i][x>>28]
		stored |= (x >> 28) << (4 * uint(i))
	}
	return crc, stored
}

// groupChecksumPortable is GroupChecksum by serialisation.
func groupChecksumPortable(e *[8]uint32) (crc, stored uint32) {
	var msg [32]byte
	for i, x := range e {
		binary.LittleEndian.PutUint32(msg[4*i:], x&^(0xF<<28))
		stored |= (x >> 28) << (4 * uint(i))
	}
	return updateSoftware(0, msg[:]), stored
}

// RunChecksum returns, for a stored run of n >= 4 column elements (vals
// and cols of equal length n), the CRC32C of its message and the checksum
// held in its slots. The message is the n values serialised
// little-endian followed by the n column indices serialised
// little-endian, with the top byte of each of the last four indices
// cleared; byte i of the checksum lives in the top byte of index n-4+i.
// The run is clean when the two agree. The top bytes of the other
// indices are part of the message: a run encodes with them zero. Encoding
// is the same call on a run whose slot bytes are zero: OR the returned
// crc into the slots.
//
// It is two Update calls over the arrays where they lie and four table
// lookups, whatever n. vals and cols must be views of storage that
// outlives the call (they are handed to hash/crc32).
func RunChecksum(vals []float64, cols []uint32, b Backend) (crc, stored uint32) {
	if !littleEndian {
		return runChecksumPortable(vals, cols)
	}
	n := len(cols)
	slots := cols[n-4 : n : n]
	s0, s1, s2, s3 := byte(slots[0]>>24), byte(slots[1]>>24), byte(slots[2]>>24), byte(slots[3]>>24)
	vb := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vals))), 8*len(vals))
	cb := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(cols))), 4*n)
	crc = Update(Checksum(vb, b), cb, b) ^
		runSlot[0][s0] ^ runSlot[1][s1] ^ runSlot[2][s2] ^ runSlot[3][s3]
	stored = uint32(s0) | uint32(s1)<<8 | uint32(s2)<<16 | uint32(s3)<<24
	return crc, stored
}

// runChecksumPortable is RunChecksum by serialisation, one word at a
// time through the slicing-by-16 kernel, for hosts whose byte order
// differs from the message's.
func runChecksumPortable(vals []float64, cols []uint32) (crc, stored uint32) {
	var w [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(w[:], math.Float64bits(v))
		crc = updateSoftware(crc, w[:])
	}
	first := len(cols) - 4
	for j, c := range cols {
		if j >= first {
			stored |= c >> 24 << (8 * uint(j-first))
			c &= 0x00FF_FFFF
		}
		binary.LittleEndian.PutUint32(w[:4], c)
		crc = updateSoftware(crc, w[:4])
	}
	return crc, stored
}
