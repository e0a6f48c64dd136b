package ecc

import (
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCRC32CKnownVectors(t *testing.T) {
	// RFC 3720 appendix B.4 test vectors for CRC32C.
	cases := []struct {
		name string
		data []byte
		want uint32
	}{
		{"zeros32", make([]byte, 32), 0x8A9136AA},
		{"ones32", func() []byte {
			b := make([]byte, 32)
			for i := range b {
				b[i] = 0xFF
			}
			return b
		}(), 0x62A8AB43},
		{"incrementing32", func() []byte {
			b := make([]byte, 32)
			for i := range b {
				b[i] = byte(i)
			}
			return b
		}(), 0x46DD794E},
		{"ascii", []byte("123456789"), 0xE3069283},
	}
	for _, c := range cases {
		for _, b := range []Backend{Auto, Hardware, Software} {
			if got := Checksum(c.data, b); got != c.want {
				t.Errorf("%s/%v: got %08x want %08x", c.name, b, got, c.want)
			}
		}
	}
}

func TestCRC32CBackendsAgreeQuick(t *testing.T) {
	f := func(data []byte) bool {
		return Checksum(data, Software) == Checksum(data, Hardware)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCRC32CMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 0; n < 100; n++ {
		data := make([]byte, rng.Intn(300))
		rng.Read(data)
		want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli))
		if got := Checksum(data, Software); got != want {
			t.Fatalf("len %d: software %08x != stdlib %08x", len(data), got, want)
		}
	}
}

func TestCRC32CUpdateIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 123)
	rng.Read(data)
	for _, b := range []Backend{Hardware, Software} {
		whole := Checksum(data, b)
		split := Update(Checksum(data[:57], b), data[57:], b)
		if whole != split {
			t.Fatalf("%v: incremental update mismatch %08x vs %08x", b, whole, split)
		}
	}
}

func TestCRCAffineSyndromeProperty(t *testing.T) {
	// syndrome(m ^ e) == Checksum(m) XOR rawCRC(e): the foundation of
	// syndrome-based correction.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(100)
		m := make([]byte, n)
		e := make([]byte, n)
		rng.Read(m)
		e[rng.Intn(n)] = 1 << uint(rng.Intn(8))
		corrupt := make([]byte, n)
		for i := range m {
			corrupt[i] = m[i] ^ e[i]
		}
		if Checksum(corrupt, Software)^Checksum(m, Software) != rawCRC(e) {
			t.Fatalf("affine property failed at n=%d", n)
		}
	}
}

func TestBitSyndromesMatchBruteForce(t *testing.T) {
	const n = 12
	syn := BitSyndromes(n)
	if len(syn) != 8*n {
		t.Fatalf("got %d syndromes, want %d", len(syn), 8*n)
	}
	for i := 0; i < 8*n; i++ {
		e := make([]byte, n)
		e[i/8] = 1 << uint(i%8)
		if syn[i] != rawCRC(e) {
			t.Fatalf("syndrome %d: got %08x want %08x", i, syn[i], rawCRC(e))
		}
	}
}

func TestFindFlipsSingleBitExhaustive(t *testing.T) {
	const n = 60 // one TeaLeaf CSR row: 5 elements x 12 bytes
	rng := rand.New(rand.NewSource(10))
	m := make([]byte, n)
	rng.Read(m)
	base := Checksum(m, Hardware)
	for bit := 0; bit < 8*n; bit++ {
		m[bit/8] ^= 1 << uint(bit%8)
		syndrome := Checksum(m, Hardware) ^ base
		m[bit/8] ^= 1 << uint(bit%8)
		pos, ok := FindFlips(syndrome, n, 1)
		if !ok || len(pos) != 1 || pos[0] != bit {
			t.Fatalf("bit %d: got %v ok=%v", bit, pos, ok)
		}
	}
}

func TestFindFlipsDoubleBitRandom(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(11))
	m := make([]byte, n)
	rng.Read(m)
	base := Checksum(m, Hardware)
	for trial := 0; trial < 60; trial++ {
		b1 := rng.Intn(8 * n)
		b2 := rng.Intn(8 * n)
		if b1 == b2 {
			continue
		}
		m[b1/8] ^= 1 << uint(b1%8)
		m[b2/8] ^= 1 << uint(b2%8)
		syndrome := Checksum(m, Hardware) ^ base
		m[b1/8] ^= 1 << uint(b1%8)
		m[b2/8] ^= 1 << uint(b2%8)
		pos, ok := FindFlips(syndrome, n, 2)
		if !ok || len(pos) != 2 {
			t.Fatalf("flips (%d,%d): got %v ok=%v", b1, b2, pos, ok)
		}
		got := map[int]bool{pos[0]: true, pos[1]: true}
		if !got[b1] || !got[b2] {
			t.Fatalf("flips (%d,%d): located %v", b1, b2, pos)
		}
	}
}

func TestFindFlipsZeroSyndrome(t *testing.T) {
	pos, ok := FindFlips(0, 16, 2)
	if !ok || pos != nil {
		t.Fatalf("zero syndrome should be clean, got %v ok=%v", pos, ok)
	}
}

func TestFindFlipsUncorrectableDepth(t *testing.T) {
	// A 2-bit error must be reported unexplainable at search depth 1
	// whenever its syndrome matches no single-bit syndrome (HD>=4
	// guarantees this for in-range codewords).
	const n = 60
	m := make([]byte, n)
	base := Checksum(m, Hardware)
	m[0] ^= 1
	m[30] ^= 0x10
	syndrome := Checksum(m, Hardware) ^ base
	if _, ok := FindFlips(syndrome, n, 1); ok {
		t.Fatal("double flip explained as a single flip inside HD6 range")
	}
}

func TestHD6Constants(t *testing.T) {
	// A 5x96-bit TeaLeaf row and both 32-byte vector/rowptr groups must sit
	// inside the HD6 window once the 32 CRC bits are included.
	for _, bits := range []int{5*96 + 0, 8 * 32, 8 * 32} {
		if bits < HD6MinBits || bits > HD6MaxBits {
			t.Fatalf("codeword of %d bits outside HD6 window [%d,%d]",
				bits, HD6MinBits, HD6MaxBits)
		}
	}
}

func TestBackendString(t *testing.T) {
	if Auto.String() != "hardware" || Hardware.String() != "hardware" || Software.String() != "software" {
		t.Fatal("backend strings wrong")
	}
	if Backend(9).String() == "" {
		t.Fatal("unknown backend should format")
	}
}

func TestSyndromeCacheReuse(t *testing.T) {
	a := syndromesFor(24)
	b := syndromesFor(24)
	if a != b {
		t.Fatal("syndrome table not cached")
	}
}

// TestParseBackend: every name and alias parses, "auto" names the
// hardware path, and an unknown name is rejected with the choices listed.
func TestParseBackend(t *testing.T) {
	want := map[string]Backend{"hardware": Hardware, "hw": Hardware, "auto": Hardware, "software": Software, "sw": Software}
	for name, w := range want {
		b, err := ParseBackend(name)
		if err != nil || b != w {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", name, b, err, w)
		}
	}
	if BackendNames() != "hardware, software" {
		t.Errorf("BackendNames() = %q", BackendNames())
	}
	if _, err := ParseBackend("abacus"); err == nil || !strings.Contains(err.Error(), BackendNames()) {
		t.Errorf("unknown name: error %v does not list the choices", err)
	}
}
