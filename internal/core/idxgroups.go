package core

import (
	"encoding/binary"

	"abft/internal/ecc"
)

// indexGroups is the index-group codec: the one implementation of the
// paper's Fig 2 layout, in which an array of 32-bit indices is cut into
// codeword groups of consecutive entries and the redundancy lives in the
// spare top bits of each entry (DESIGN.md sections 1 and 3). It is the
// row-pointer twin of ColElems: a view over an index array — never a
// copy — built per call (Matrix.rowGroups) and never stored on a format.
//
// Group g is entries [g*n, g*n+n) for n = Group():
//
//	SED        one entry, parity in bit 31
//	SECDED64   two entries, 8 check bits in their top nibbles
//	SECDED128  four entries, 9 check bits in the top nibbles of the first
//	           two and bit 28 of the third
//	CRC32C     eight entries, the checksum nibble-wise in their top bits
//
// The array must hold whole groups. Like ColElems the codec holds no
// state: a decode takes its commit discipline and counters explicitly.
type indexGroups struct {
	Scheme  Scheme
	Backend ecc.Backend
	Idx     []uint32
}

// Group returns the number of entries per codeword.
func (x indexGroups) Group() int { return x.Scheme.RowPtrGroup() }

// Mask returns the AND-mask isolating the data bits of a stored entry.
func (x indexGroups) Mask() uint32 {
	switch x.Scheme {
	case None:
		return 0xFFFF_FFFF
	case SED:
		return sedColMask
	default:
		return rowPtrMask
	}
}

func (x indexGroups) fault(c *Counters, g int, detail string) error {
	c.AddDetected(1)
	return &FaultError{Structure: StructRowPtr, Scheme: x.Scheme, Index: g, Detail: detail}
}

// Encode recomputes the redundancy of group g from the data bits
// currently stored.
func (x indexGroups) Encode(g int) {
	switch x.Scheme {
	case SED:
		r := x.Idx[g] & sedColMask
		x.Idx[g] = r | uint32(ecc.Parity64(uint64(r)))<<31
	case SECDED64:
		e := x.Idx[2*g : 2*g+2]
		w := codecRow64.Encode64(pack32(e[0]&rowPtrMask, e[1]&rowPtrMask))
		e[0], e[1] = uint32(w), uint32(w>>32)
	case SECDED128:
		e := x.Idx[4*g : 4*g+4]
		w, y := codecRow128.Encode128(pack32(e[0]&rowPtrMask, e[1]&rowPtrMask), pack32(e[2]&rowPtrMask, e[3]&rowPtrMask))
		e[0], e[1], e[2], e[3] = uint32(w), uint32(w>>32), uint32(y), uint32(y>>32)
	case CRC32C:
		// Clear the slots, checksum the group where it lies, fill them.
		e := (*[8]uint32)(x.Idx[8*g : 8*g+8])
		for i := range e {
			e[i] &= rowPtrMask
		}
		crc, _ := ecc.GroupChecksum(e, x.Backend)
		for i := range e {
			e[i] |= (crc >> (4 * uint(i)) & 0xF) << 28
		}
	}
}

// clean reports whether every group of entries [from, to) verifies, both
// group-aligned: the clean test every reader shares. Under SECDED the
// window is one kernel call, a fold and a parity test per group (DESIGN.md
// section 45); nothing is decoded, counted or committed.
func (x indexGroups) clean(from, to int) bool {
	rp := x.Idx[from:to]
	var acc uint32
	switch x.Scheme {
	case SED:
		for _, r := range rp {
			acc |= uint32(ecc.Parity64(uint64(r)))
		}
	case SECDED64:
		acc = uint32(codecRow64.FoldGroups64(rp))
	case SECDED128:
		acc = uint32(codecRow128.FoldGroups128(rp))
	case CRC32C:
		for i := 0; i+7 < len(rp); i += 8 {
			crc, stored := ecc.GroupChecksum((*[8]uint32)(rp[i:i+8]), x.Backend)
			acc |= crc ^ stored
		}
	}
	return acc == 0
}

// Decode verifies group g and writes its masked data entries into
// dst[0:Group()]. A clean group costs the clean test alone. Otherwise a
// correctable fault is counted into c and always applied to dst, and
// storage is repaired only when commit is true: the first return reports
// whether a correction was found, so when it was and commit is false
// storage still holds the fault and only dst carries the corrected
// values. An uncorrectable fault is counted and returned, and writes
// nothing.
func (x indexGroups) Decode(g int, commit bool, dst *[8]uint32, c *Counters) (corrected bool, err error) {
	n := x.Group()
	e := x.Idx[n*g : n*g+n]
	if x.clean(n*g, n*g+n) {
		mask := x.Mask()
		for i, r := range e {
			dst[i] = r & mask
		}
		return false, nil
	}
	switch x.Scheme {
	case SED:
		return false, x.fault(c, g, "parity mismatch")
	case CRC32C:
		// Only a mismatch pays for the codeword image and its repair
		// (DESIGN.md section 31).
		var img [32]byte
		for i, r := range e {
			binary.LittleEndian.PutUint32(img[4*i:], r&rowPtrMask)
		}
		crc, stored := ecc.GroupChecksum((*[8]uint32)(e), x.Backend)
		if !ecc.RepairCodeword(img[:], rowSlot, stored, crc) {
			return false, x.fault(c, g, "crc32c mismatch beyond correction depth")
		}
		c.AddCorrected(1)
		for i := range e {
			r := binary.LittleEndian.Uint32(img[4*i:])
			if commit {
				e[i] = r
			}
			dst[i] = r & rowPtrMask
		}
		return true, nil
	}
	codec, cw := codecRow64, ecc.Word4{pack32(e[0], e[1])}
	if x.Scheme == SECDED128 {
		codec, cw[1] = codecRow128, pack32(e[2], e[3])
	}
	switch res, _ := codec.Check(&cw); res {
	case ecc.Corrected:
		corrected = true
		c.AddCorrected(1)
	case ecc.Detected:
		return false, x.fault(c, g, "secded double-bit error")
	}
	for i := range e {
		r := uint32(cw[i/2] >> (32 * uint(i%2)))
		if commit {
			e[i] = r
		}
		dst[i] = r & rowPtrMask
	}
	return corrected, nil
}

// pack32 packs two index entries into one codeword word.
func pack32(lo, hi uint32) uint64 { return uint64(lo) | uint64(hi)<<32 }

// rowSlot places bit k of a CRC32C group's checksum in its codeword
// image: bit 28+k%4 of entry k/4.
func rowSlot(k int) int { return 32*(k/4) + 28 + k%4 }
