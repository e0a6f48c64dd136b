package ecc

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// serialisedBlock is the definition BlockChecksum must equal: serialise
// the four words little-endian with the slot bytes cleared, checksum the
// copy, gather the slot bytes.
func serialisedBlock(w *[4]uint64, b Backend) (crc, stored uint32) {
	var msg [32]byte
	for i, x := range w {
		binary.LittleEndian.PutUint64(msg[8*i:], x&^0xFF)
		stored |= uint32(x&0xFF) << (8 * uint(i))
	}
	return Checksum(msg[:], b), stored
}

// serialisedGroup is the same definition for GroupChecksum.
func serialisedGroup(e *[8]uint32, b Backend) (crc, stored uint32) {
	var msg [32]byte
	for i, x := range e {
		binary.LittleEndian.PutUint32(msg[4*i:], x&0x0FFF_FFFF)
		stored |= (x >> 28) << (4 * uint(i))
	}
	return Checksum(msg[:], b), stored
}

// checkBlockWords compares every route to a block's (crc, stored) pair.
func checkBlockWords(t *testing.T, w [4]uint64) {
	t.Helper()
	e := [8]uint32{
		uint32(w[0]), uint32(w[0] >> 32), uint32(w[1]), uint32(w[1] >> 32),
		uint32(w[2]), uint32(w[2] >> 32), uint32(w[3]), uint32(w[3] >> 32),
	}
	for _, b := range []Backend{Hardware, Software} {
		wantCRC, wantStored := serialisedBlock(&w, b)
		if crc, stored := BlockChecksum(&w, b); crc != wantCRC || stored != wantStored {
			t.Fatalf("%v: BlockChecksum(%x) = (%08x, %08x), serialised (%08x, %08x)",
				b, w, crc, stored, wantCRC, wantStored)
		}
		wantCRC, wantStored = serialisedGroup(&e, b)
		if crc, stored := GroupChecksum(&e, b); crc != wantCRC || stored != wantStored {
			t.Fatalf("%v: GroupChecksum(%x) = (%08x, %08x), serialised (%08x, %08x)",
				b, e, crc, stored, wantCRC, wantStored)
		}
	}
	// The big-endian fallbacks must agree too; they run nowhere else on a
	// little-endian host.
	wantCRC, wantStored := serialisedBlock(&w, Software)
	if crc, stored := blockChecksumPortable(&w); crc != wantCRC || stored != wantStored {
		t.Fatalf("blockChecksumPortable(%x) = (%08x, %08x), serialised (%08x, %08x)",
			w, crc, stored, wantCRC, wantStored)
	}
	wantCRC, wantStored = serialisedGroup(&e, Software)
	if crc, stored := groupChecksumPortable(&e); crc != wantCRC || stored != wantStored {
		t.Fatalf("groupChecksumPortable(%x) = (%08x, %08x), serialised (%08x, %08x)",
			e, crc, stored, wantCRC, wantStored)
	}
}

// FuzzBlockChecksum asserts that the in-place primitives equal
// serialise-then-Checksum for arbitrary words, slot bits included, on
// both backends and through the portable fallback.
func FuzzBlockChecksum(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0xFF), uint64(0xFF00), uint64(0xF000_0000), uint64(0xF000_0000_0000_0000))
	f.Add(uint64(0x3FF0_0000_0000_0000), uint64(0x4000_0000_0000_0001),
		uint64(0xBFF8_0000_0000_00A5), uint64(0x7FF0_0000_0000_0000))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3 uint64) {
		checkBlockWords(t, [4]uint64{w0, w1, w2, w3})
	})
}

// TestBlockChecksumSlotTables walks every slot value of every slot over a
// random message, so each table entry is compared with serialisation once
// even when the fuzz corpus is not extended.
func TestBlockChecksumSlotTables(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var base [4]uint64
	for i := range base {
		base[i] = rng.Uint64()
	}
	for slot := 0; slot < 4; slot++ {
		for v := 0; v < 256; v++ {
			w := base
			w[slot] = w[slot]&^0xFF | uint64(v)
			checkBlockWords(t, w)
		}
	}
	// Index-group slots: the top nibble of each 32-bit half.
	for slot := 0; slot < 8; slot++ {
		for n := uint64(0); n < 16; n++ {
			w := base
			shift := uint(28 + 32*(slot%2))
			w[slot/2] = w[slot/2]&^(0xF<<shift) | n<<shift
			checkBlockWords(t, w)
		}
	}
}

// TestBlockChecksumEncodeIsCheck pins the encode direction: with cleared
// slots the primitive returns the message's checksum and a zero stored
// value, and writing that checksum into the slots yields a clean block.
func TestBlockChecksumEncodeIsCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		var w [4]uint64
		for i := range w {
			w[i] = rng.Uint64() &^ 0xFF
		}
		crc, stored := BlockChecksum(&w, Auto)
		if stored != 0 {
			t.Fatalf("cleared slots read back %08x", stored)
		}
		for i := range w {
			w[i] |= uint64(crc>>(8*uint(i))) & 0xFF
		}
		if got, stored := BlockChecksum(&w, Auto); got != crc || stored != crc {
			t.Fatalf("encoded block not clean: crc %08x stored %08x want %08x", got, stored, crc)
		}
	}
}

// TestBlockChecksumZeroAllocs pins the point of the primitive: checking
// words that already live on the heap allocates nothing.
func TestBlockChecksumZeroAllocs(t *testing.T) {
	words := make([]uint64, 4)
	idx := make([]uint32, 8)
	var sink uint32
	for _, b := range []Backend{Hardware, Software} {
		if n := testing.AllocsPerRun(100, func() {
			crc, stored := BlockChecksum((*[4]uint64)(words), b)
			sink ^= crc ^ stored
		}); n != 0 {
			t.Errorf("%v: BlockChecksum allocates %v times per call", b, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			crc, stored := GroupChecksum((*[8]uint32)(idx), b)
			sink ^= crc ^ stored
		}); n != 0 {
			t.Errorf("%v: GroupChecksum allocates %v times per call", b, n)
		}
	}
	_ = sink
}
