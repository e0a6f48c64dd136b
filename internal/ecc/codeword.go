package ecc

import "math/bits"

// CodewordFlip locates one corrected bit of a CRC-protected codeword:
// either bit Bit of the serialized message (InCRC false) or bit Bit of
// the stored 32-bit checksum (InCRC true).
type CodewordFlip struct {
	Bit   int
	InCRC bool
}

// CorrectCodeword locates up to two bit flips that explain the
// disagreement between a stored and a recomputed CRC32C. The codeword is
// the message together with its checksum, so flips may live in either.
// Explanations requiring fewer flips are preferred; within the same flip
// count, checksum-slot flips are tried before message flips (they are
// cheaper to verify and equally likely). Returns ok=false when no
// explanation with <=2 flips exists — the error exceeds the correction
// depth and must be treated as detected-uncorrectable.
//
// Correction is only sound while the true flip count stays below the
// code's minimum-distance budget; callers should restrict use to
// codewords within the HD6 range (178..5243 bits) and treat the result as
// best-effort beyond two flips.
func CorrectCodeword(msg []byte, stored, computed uint32) ([]CodewordFlip, bool) {
	syndrome := stored ^ computed
	if syndrome == 0 {
		return nil, true
	}
	// One flip in the stored checksum.
	if bits.OnesCount32(syndrome) == 1 {
		return []CodewordFlip{{Bit: bits.TrailingZeros32(syndrome), InCRC: true}}, true
	}
	// One flip in the message.
	if pos, ok := FindFlips(syndrome, len(msg), 1); ok {
		return []CodewordFlip{{Bit: pos[0]}}, true
	}
	// Two flips in the stored checksum.
	if bits.OnesCount32(syndrome) == 2 {
		lo := bits.TrailingZeros32(syndrome)
		hi := 31 - bits.LeadingZeros32(syndrome)
		return []CodewordFlip{{Bit: lo, InCRC: true}, {Bit: hi, InCRC: true}}, true
	}
	// One message flip plus one checksum flip.
	for k := 0; k < 32; k++ {
		if pos, ok := FindFlips(syndrome^(1<<uint(k)), len(msg), 1); ok {
			return []CodewordFlip{{Bit: pos[0]}, {Bit: k, InCRC: true}}, true
		}
	}
	// Two flips in the message.
	if pos, ok := FindFlips(syndrome, len(msg), 2); ok {
		return []CodewordFlip{{Bit: pos[0]}, {Bit: pos[1]}}, true
	}
	return nil, false
}

// RepairCodeword repairs a CRC32C codeword whose checksum disagreed: img
// holds the codeword's message with its 32 checksum slot bits cleared,
// bit k of the stored checksum lives at image bit slot(k), and crc is the
// checksum of img. It explains stored^crc with CorrectCodeword and
// rejects the whole explanation if any message flip falls on a slot bit,
// which always reads zero in the message, so no stored bit can have
// flipped there. Only when every flip is sound does it apply the message
// flips and write the corrected checksum into the slots, leaving img the
// corrected raw codeword; otherwise img is unchanged and it returns
// false. Image bit i is bit i%8 of img[i/8].
func RepairCodeword(img []byte, slot func(k int) int, stored, crc uint32) bool {
	flips, ok := CorrectCodeword(img, stored, crc)
	if !ok {
		return false
	}
	for _, f := range flips {
		for k := 0; k < 32; k++ {
			if !f.InCRC && slot(k) == f.Bit {
				return false
			}
		}
	}
	for _, f := range flips {
		if f.InCRC {
			stored ^= 1 << uint(f.Bit)
		} else {
			img[f.Bit/8] ^= 1 << uint(f.Bit%8)
		}
	}
	for k := 0; k < 32; k++ {
		if stored>>uint(k)&1 != 0 {
			img[slot(k)/8] |= 1 << uint(slot(k)%8)
		}
	}
	return true
}
