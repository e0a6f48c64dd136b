package ecc

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// slotMap is one protected structure's CRC32C codeword as RepairCodeword
// sees it: an image of n bytes, bit k of the checksum at image bit
// slot(k).
type slotMap struct {
	name string
	n    int
	slot func(k int) int
}

// runSlotMap is the column-element run of m entries: m values, then m
// column indices, the checksum in the top bytes of the last four.
func runSlotMap(m int) slotMap {
	return slotMap{fmt.Sprintf("run%d", m), 12 * m, func(k int) int { return 64*m + 32*(m-4+k/8) + 24 + k%8 }}
}

// slotMaps are the four structures that store a CRC32C codeword.
var slotMaps = []slotMap{
	{"vector block", 64, func(k int) int { return 64*(k/8) + k%8 }},
	{"row-pointer group", 32, func(k int) int { return 32*(k/4) + 28 + k%4 }},
	runSlotMap(6),
	runSlotMap(20),
	{"coo group", 128, func(k int) int { return 128*(k/4) + 92 + k%4 }},
}

func flipBit(img []byte, i int) { img[i/8] ^= 1 << uint(i%8) }

func bitOf(img []byte, i int) uint32 { return uint32(img[i/8]>>uint(i%8)) & 1 }

// encode returns the raw codeword of msg: msg with its slot bits cleared
// and then holding the checksum of the cleared message.
func (s slotMap) encode(msg []byte) []byte {
	raw := make([]byte, s.n)
	copy(raw, msg)
	for k := 0; k < 32; k++ {
		raw[s.slot(k)/8] &^= 1 << uint(s.slot(k)%8)
	}
	crc := Checksum(raw, Auto)
	for k := 0; k < 32; k++ {
		raw[s.slot(k)/8] |= byte(crc>>uint(k)&1) << uint(s.slot(k)%8)
	}
	return raw
}

// gather splits a raw codeword into RepairCodeword's inputs: the image
// with the slots cleared, the stored checksum and the image's checksum.
func (s slotMap) gather(raw []byte) (img []byte, stored, crc uint32) {
	img = append([]byte(nil), raw...)
	for k := 0; k < 32; k++ {
		stored |= bitOf(img, s.slot(k)) << uint(k)
		img[s.slot(k)/8] &^= 1 << uint(s.slot(k)%8)
	}
	return img, stored, Checksum(img, Auto)
}

// repairs reports whether flipping the given bits of the raw codeword
// clean is undone: the gathered image repairs back to clean exactly.
func (s slotMap) repairs(clean []byte, flips ...int) error {
	raw := append([]byte(nil), clean...)
	for _, b := range flips {
		flipBit(raw, b)
	}
	img, stored, crc := s.gather(raw)
	if stored == crc {
		return fmt.Errorf("flips %v go unnoticed", flips)
	}
	if !RepairCodeword(img, s.slot, stored, crc) {
		return fmt.Errorf("flips %v not corrected", flips)
	}
	if !bytes.Equal(img, clean) {
		return fmt.Errorf("flips %v corrected to another codeword", flips)
	}
	return nil
}

// TestRepairCodewordSlotMaps drives RepairCodeword over every structure's
// slot map: every single flip of the stored codeword, message and slot
// bits alike, and a seeded sample of double flips are undone exactly; an
// explanation that puts a message flip on a slot bit, before or after a
// sound message flip, is rejected with the image unchanged.
func TestRepairCodewordSlotMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, s := range slotMaps {
		msg := make([]byte, s.n)
		rng.Read(msg)
		clean := s.encode(msg)
		nbits := 8 * s.n
		for b := 0; b < nbits; b++ {
			if err := s.repairs(clean, b); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}
		for i := 0; i < 600; i++ {
			a, b := rng.Intn(nbits), rng.Intn(nbits)
			if a == b {
				continue
			}
			if err := s.repairs(clean, a, b); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		}

		isSlot := map[int]bool{}
		for k := 0; k < 32; k++ {
			isSlot[s.slot(k)] = true
		}
		syn := BitSyndromes(s.n)
		for k := 0; k < 32; k++ {
			p1 := s.slot(k)
			for _, p0 := range []int{rng.Intn(nbits), rng.Intn(nbits), p1 - 1, p1 + 1} {
				if p0 < 0 || p0 >= nbits || isSlot[p0] {
					continue
				}
				// The message holds p0's flip; the stored checksum
				// claims a message flip at the slot bit p1 as well.
				img, stored, _ := s.gather(clean)
				flipBit(img, p0)
				stored ^= syn[p1]
				before := append([]byte(nil), img...)
				if RepairCodeword(img, s.slot, stored, Checksum(img, Auto)) {
					t.Fatalf("%s: message flip on slot %d (with %d) accepted", s.name, k, p0)
				}
				if !bytes.Equal(img, before) {
					t.Fatalf("%s: rejected repair of slot %d (with %d) wrote the image", s.name, k, p0)
				}
			}
		}
	}
}

// FuzzRepairCodeword checks RepairCodeword's contract on arbitrary
// messages of every slot map: up to two flips of the stored codeword
// are undone exactly, and for an arbitrary stored checksum either the
// image is left unchanged (false) or it becomes a valid codeword at most
// two flips from the input (true).
func FuzzRepairCodeword(f *testing.F) {
	f.Add(uint8(0), []byte("vector"), uint16(3), uint16(511), uint32(0xDEADBEEF))
	f.Add(uint8(1), []byte{0xFF, 0x0F}, uint16(28), uint16(60), uint32(1))
	f.Add(uint8(2), []byte("column-element run"), uint16(400), uint16(700), uint32(0))
	f.Add(uint8(4), []byte("coo"), uint16(92), uint16(1023), uint32(0x80000001))
	f.Fuzz(func(t *testing.T, kind uint8, msg []byte, a, b uint16, stored uint32) {
		s := slotMaps[int(kind)%len(slotMaps)]
		clean := s.encode(msg)
		nbits := 8 * s.n
		if fa, fb := int(a)%nbits, int(b)%nbits; fa != fb {
			if err := s.repairs(clean, fa, fb); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
		} else if err := s.repairs(clean, fa); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}

		img, _, crc := s.gather(clean)
		before := append([]byte(nil), img...)
		if !RepairCodeword(img, s.slot, stored, crc) {
			if !bytes.Equal(img, before) {
				t.Fatalf("%s: rejected repair wrote the image", s.name)
			}
			return
		}
		// The repaired image is a codeword, and it and its checksum lie
		// at most two flips from the input image and stored checksum.
		msgOf, got, gotCRC := s.gather(img)
		if got != gotCRC {
			t.Fatalf("%s: repair left checksum %08x over a message checksumming to %08x", s.name, got, gotCRC)
		}
		dist := bits.OnesCount32(got ^ stored)
		for i := range msgOf {
			dist += bits.OnesCount8(msgOf[i] ^ before[i])
		}
		if dist > 2 {
			t.Fatalf("%s: repair moved %d bits", s.name, dist)
		}
	})
}
