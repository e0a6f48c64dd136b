package ecc

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// serialisedBlock is the definition BlockChecksum must equal: serialise
// the eight words little-endian with the slot bytes (the low bytes of
// words 0-3) cleared, checksum the copy, gather the slot bytes.
func serialisedBlock(w *[8]uint64, b Backend) (crc, stored uint32) {
	var msg [64]byte
	for i, x := range w {
		if i < 4 {
			stored |= uint32(x&0xFF) << (8 * uint(i))
			x &^= 0xFF
		}
		binary.LittleEndian.PutUint64(msg[8*i:], x)
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

// checkBlockWords compares every route to a block's (crc, stored) pair,
// and to that of the index group held in its first four words.
func checkBlockWords(t *testing.T, w [8]uint64) {
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
// serialise-then-Checksum for arbitrary words, slot bits and the low
// bytes of words 4-7 included, on both backends and through the portable
// fallback.
func FuzzBlockChecksum(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Add(uint64(0xFF), uint64(0xFF00), uint64(0xF000_0000), uint64(0xF000_0000_0000_0000),
		uint64(0xFF), uint64(0x80), uint64(0x01), uint64(0xFF00_0000_0000_00FF))
	f.Add(uint64(0x3FF0_0000_0000_0000), uint64(0x4000_0000_0000_0001),
		uint64(0xBFF8_0000_0000_00A5), uint64(0x7FF0_0000_0000_0000),
		uint64(0x3FF8_0000_0000_0000), uint64(0xC000_0000_0000_0000),
		uint64(0x0010_0000_0000_0000), uint64(0x8000_0000_0000_005A))
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, w4, w5, w6, w7 uint64) {
		checkBlockWords(t, [8]uint64{w0, w1, w2, w3, w4, w5, w6, w7})
	})
}

// TestBlockChecksumSlotTables walks every slot value of every slot, and
// every value of the low byte of words 4-7 (message bytes a vector
// encodes as zero), over a random message, so each table entry is
// compared with serialisation once even when the fuzz corpus is not
// extended.
func TestBlockChecksumSlotTables(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var base [8]uint64
	for i := range base {
		base[i] = rng.Uint64()
	}
	for word := 0; word < 8; word++ {
		for v := 0; v < 256; v++ {
			w := base
			w[word] = w[word]&^0xFF | uint64(v)
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
		var w [8]uint64
		for i := range w {
			w[i] = rng.Uint64() &^ 0xFF
		}
		crc, stored := BlockChecksum(&w, Auto)
		if stored != 0 {
			t.Fatalf("cleared slots read back %08x", stored)
		}
		for i := 0; i < 4; i++ {
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
	words := make([]uint64, 8)
	idx := make([]uint32, 8)
	var sink uint32
	for _, b := range []Backend{Hardware, Software} {
		if n := testing.AllocsPerRun(100, func() {
			crc, stored := BlockChecksum((*[8]uint64)(words), b)
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

// TestBlockCodewordDetectsFiveFlips is the HD-6 claim as a property of
// the vector-block codeword: the 512-bit message (eight words, those
// slot bytes a vector stores the checksum in counted as the zero message
// bytes they stand for) and its 32-bit checksum, 544 bits, inside
// CRC32C's HD-6 range. Codeword bit i < 512 is message bit i (bit i%64 of
// word i/64), bit 512+k is checksum bit k. Every 1- and 2-flip pattern
// is explained by CorrectCodeword exactly and undone; 3-, 4- and 5-flip
// patterns are sampled, and every one leaves a non-zero syndrome equal to
// the XOR of its bits' syndromes (the checksum is affine).
func TestBlockCodewordDetectsFiveFlips(t *testing.T) {
	const msgBits, bits = 64 * 8, 64*8 + 32
	if bits < HD6MinBits || bits > HD6MaxBits {
		t.Fatalf("block codeword of %d bits outside the HD-6 range", bits)
	}
	rng := rand.New(rand.NewSource(20))
	var msg [64]byte
	rng.Read(msg[:])
	for i := 0; i < 4; i++ {
		msg[8*i] = 0
	}
	clean, crc := msg, Checksum(msg[:], Auto)
	stored := crc
	flip := func(b int) {
		if b < msgBits {
			msg[b/8] ^= 1 << uint(b%8)
		} else {
			stored ^= 1 << uint(b-msgBits)
		}
	}
	syndrome := func() uint32 { return Checksum(msg[:], Auto) ^ stored }
	correct := func(a, b int) {
		t.Helper()
		found, ok := CorrectCodeword(msg[:], stored, Checksum(msg[:], Auto))
		if !ok {
			t.Fatalf("flips of bits %d and %d not corrected", a, b)
		}
		for _, f := range found {
			if f.InCRC {
				flip(msgBits + f.Bit)
			} else {
				flip(f.Bit)
			}
		}
		if msg != clean || stored != crc {
			t.Fatalf("flips of bits %d and %d corrected to another codeword", a, b)
		}
	}
	syn := make([]uint32, bits)
	seen := make(map[uint32]int, bits)
	for b := range syn {
		flip(b)
		syn[b] = syndrome()
		if syn[b] == 0 {
			t.Fatalf("a flip of bit %d goes unnoticed", b)
		}
		if a, dup := seen[syn[b]]; dup {
			t.Fatalf("flips of bits %d and %d cancel", a, b)
		}
		seen[syn[b]] = b
		correct(b, b)
	}
	for a := 0; a < bits; a++ {
		for b := a + 1; b < bits; b++ {
			flip(a)
			flip(b)
			correct(a, b)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		k := 3 + trial%3
		picked := map[int]bool{}
		for len(picked) < k {
			picked[rng.Intn(bits)] = true
		}
		var want uint32
		for b := range picked {
			want ^= syn[b]
			flip(b)
		}
		got := syndrome()
		msg, stored = clean, crc
		if got == 0 || got != want {
			t.Fatalf("%d flips at %v: syndrome %08x, linear prediction %08x", k, picked, got, want)
		}
	}
}

// serialisedRun is the definition RunChecksum must equal: the values
// serialised little-endian, then the column indices with the top bytes of
// the last four cleared, checksummed as one message; the slot bytes
// gathered into the stored checksum.
func serialisedRun(vals []float64, cols []uint32, b Backend) (crc, stored uint32) {
	n := len(cols)
	msg := make([]byte, 12*n)
	for j, v := range vals {
		binary.LittleEndian.PutUint64(msg[8*j:], math.Float64bits(v))
	}
	for j, c := range cols {
		if i := j - (n - 4); i >= 0 {
			stored |= c >> 24 << (8 * uint(i))
			c &= 0x00FF_FFFF
		}
		binary.LittleEndian.PutUint32(msg[8*n+4*j:], c)
	}
	return Checksum(msg, b), stored
}

// checkRunWords compares every route to a run's (crc, stored) pair.
func checkRunWords(t *testing.T, vals []float64, cols []uint32) {
	t.Helper()
	for _, b := range []Backend{Hardware, Software} {
		wantCRC, wantStored := serialisedRun(vals, cols, b)
		if crc, stored := RunChecksum(vals, cols, b); crc != wantCRC || stored != wantStored {
			t.Fatalf("%v: RunChecksum(n=%d) = (%08x, %08x), serialised (%08x, %08x)",
				b, len(cols), crc, stored, wantCRC, wantStored)
		}
	}
	wantCRC, wantStored := serialisedRun(vals, cols, Software)
	if crc, stored := runChecksumPortable(vals, cols); crc != wantCRC || stored != wantStored {
		t.Fatalf("runChecksumPortable(n=%d) = (%08x, %08x), serialised (%08x, %08x)",
			len(cols), crc, stored, wantCRC, wantStored)
	}
}

// randomRun fills a run of n elements with arbitrary words, slot and
// reserved bytes included.
func randomRun(rng *rand.Rand, n int) ([]float64, []uint32) {
	vals, cols := make([]float64, n), make([]uint32, n)
	for j := range vals {
		vals[j] = math.Float64frombits(rng.Uint64())
		cols[j] = rng.Uint32()
	}
	return vals, cols
}

// FuzzRunChecksum asserts that the in-place run checksum equals
// serialise-then-Checksum and the portable fallback for arbitrary words,
// slot and reserved bytes included, at a fuzzer-chosen run length.
func FuzzRunChecksum(f *testing.F) {
	f.Add(uint8(0), int64(1))
	f.Add(uint8(1), int64(2))
	f.Add(uint8(48), int64(3))
	f.Add(uint8(50), int64(4))
	f.Fuzz(func(t *testing.T, n uint8, seed int64) {
		vals, cols := randomRun(rand.New(rand.NewSource(seed)), 4+int(n)%61)
		checkRunWords(t, vals, cols)
	})
}

// TestRunChecksumSlotTables walks every value of every slot byte, and of
// the reserved top byte of a non-slot index, over random runs of the
// shortest, a SELL-chunk and the longest HD-6 length, so each table entry
// is compared with serialisation even when the fuzz corpus is not
// extended.
func TestRunChecksumSlotTables(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{4, 20, 54} {
		vals, cols := randomRun(rng, n)
		for _, j := range []int{0, n - 4, n - 3, n - 2, n - 1} {
			saved := cols[j]
			for v := uint32(0); v < 256; v++ {
				cols[j] = saved&0x00FF_FFFF | v<<24
				checkRunWords(t, vals, cols)
			}
			cols[j] = saved
		}
	}
}

// TestRunChecksumEncodeIsCheck pins the encode direction: with cleared top
// bytes the kernel returns the message's checksum and a zero stored
// value, and writing that checksum into the slots yields a clean run.
func TestRunChecksumEncodeIsCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		vals, cols := randomRun(rng, 4+rng.Intn(60))
		for j := range cols {
			cols[j] &= 0x00FF_FFFF
		}
		crc, stored := RunChecksum(vals, cols, Auto)
		if stored != 0 {
			t.Fatalf("cleared slots read back %08x", stored)
		}
		n := len(cols)
		for i := 0; i < 4; i++ {
			cols[n-4+i] |= crc >> (8 * uint(i)) & 0xFF << 24
		}
		if got, stored := RunChecksum(vals, cols, Auto); got != crc || stored != crc {
			t.Fatalf("encoded run not clean: crc %08x stored %08x want %08x", got, stored, crc)
		}
	}
}

// TestRunChecksumZeroAllocs: checking a run that lives on the heap
// allocates nothing, on either backend.
func TestRunChecksumZeroAllocs(t *testing.T) {
	vals, cols := randomRun(rand.New(rand.NewSource(18)), 52)
	var sink uint32
	for _, b := range []Backend{Hardware, Software} {
		if n := testing.AllocsPerRun(100, func() {
			crc, stored := RunChecksum(vals, cols, b)
			sink ^= crc ^ stored
		}); n != 0 {
			t.Errorf("%v: RunChecksum allocates %v times per call", b, n)
		}
	}
	_ = sink
}

// TestRunCodewordDetectsFiveFlips is the HD-6 claim as a property of the
// element-run codeword, over every run length whose codeword (96 bits per
// element plus the 32-bit checksum) stays inside CRC32C's HD-6 range: 4
// to 54 elements, i.e. every CSR row the claim covers and every SELL
// chunk of 1 to 13 four-entry columns. The checksum is affine in the
// stored bits, so a flip pattern goes unnoticed exactly when the XOR of
// its bits' syndromes is zero. Every 1- and 2-flip pattern is covered
// exhaustively (every stored bit's syndrome is non-zero and no two are
// equal); 3-, 4- and 5-flip patterns by a seeded sample, each also struck
// into storage and checked through RunChecksum.
func TestRunCodewordDetectsFiveFlips(t *testing.T) {
	maxN := (HD6MaxBits - 32) / 96
	if maxN != 54 {
		t.Fatalf("HD-6 run length %d, want 54", maxN)
	}
	rng := rand.New(rand.NewSource(19))
	for n := 4; n <= maxN; n++ {
		vals, cols := randomRun(rng, n)
		for j := range cols {
			cols[j] &= 0x00FF_FFFF
		}
		crc, _ := RunChecksum(vals, cols, Auto)
		for i := 0; i < 4; i++ {
			cols[n-4+i] |= crc >> (8 * uint(i)) & 0xFF << 24
		}
		flip := func(bit int) {
			if bit < 64*n {
				vals[bit/64] = math.Float64frombits(math.Float64bits(vals[bit/64]) ^ 1<<uint(bit%64))
			} else {
				cols[(bit-64*n)/32] ^= 1 << uint((bit-64*n)%32)
			}
		}
		syndrome := func() uint32 {
			crc, stored := RunChecksum(vals, cols, Auto)
			return crc ^ stored
		}
		bits := 96 * n
		syn := make([]uint32, bits)
		seen := make(map[uint32]int, bits)
		for b := range syn {
			flip(b)
			syn[b] = syndrome()
			flip(b)
			if syn[b] == 0 {
				t.Fatalf("n=%d: a flip of stored bit %d goes unnoticed", n, b)
			}
			if a, dup := seen[syn[b]]; dup {
				t.Fatalf("n=%d: flips of stored bits %d and %d cancel", n, a, b)
			}
			seen[syn[b]] = b
		}
		for trial := 0; trial < 1200; trial++ {
			k := 3 + trial%3
			picked := map[int]bool{}
			for len(picked) < k {
				picked[rng.Intn(bits)] = true
			}
			var want uint32
			for b := range picked {
				want ^= syn[b]
				flip(b)
			}
			got := syndrome()
			for b := range picked {
				flip(b)
			}
			if got == 0 || got != want {
				t.Fatalf("n=%d: %d flips at %v: syndrome %08x, linear prediction %08x", n, k, picked, got, want)
			}
		}
	}
}
