package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// layouts used across the repository; each is exercised exhaustively.
var testLayouts = []struct {
	name     string
	width    int
	checkPos []int
}{
	{"vector-secded64", 64, []int{0, 1, 2, 3, 4, 5, 6, 7}},
	{"vector-secded128", 128, []int{0, 1, 2, 3, 4, 64, 65, 66, 67}},
	{"element-secded64", 96, []int{88, 89, 90, 91, 92, 93, 94, 95}},
	{"element-secded128", 192, []int{88, 89, 90, 91, 92, 184, 185, 186, 187}},
	{"rowptr-secded64", 64, []int{28, 29, 30, 31, 60, 61, 62, 63}},
	{"rowptr-secded128", 128, []int{28, 29, 30, 31, 60, 61, 62, 63, 92}},
	{"coo-secded64", 128, []int{92, 93, 94, 95, 124, 125, 126, 127}},
	{"coo-secded128", 256, []int{92, 93, 94, 95, 124, 220, 221, 222, 223}},
}

func randWord(rng *rand.Rand, c *SECDED) Word4 {
	var w Word4
	for i := range w {
		w[i] = rng.Uint64()
	}
	// Zero bits beyond width.
	for i := c.Width(); i < 256; i++ {
		w.SetBit(i, 0)
	}
	return w
}

func TestSECDEDEncodeCheckClean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, l := range testLayouts {
		c := MustSECDED(l.width, l.checkPos)
		for trial := 0; trial < 200; trial++ {
			w := randWord(rng, c)
			c.Encode(&w)
			if res, _ := c.Check(&w); res != OK {
				t.Fatalf("%s: clean codeword reported %v", l.name, res)
			}
		}
	}
}

func TestSECDEDSingleBitCorrection(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, l := range testLayouts {
		c := MustSECDED(l.width, l.checkPos)
		for trial := 0; trial < 20; trial++ {
			orig := randWord(rng, c)
			c.Encode(&orig)
			for bit := 0; bit < c.Width(); bit++ {
				w := orig
				w.Flip(bit)
				res, fixed := c.Check(&w)
				if res != Corrected {
					t.Fatalf("%s: flip bit %d not corrected: %v", l.name, bit, res)
				}
				if fixed != bit {
					t.Fatalf("%s: flip bit %d, corrected bit %d", l.name, bit, fixed)
				}
				if w != orig {
					t.Fatalf("%s: flip bit %d, codeword not restored", l.name, bit)
				}
			}
		}
	}
}

func TestSECDEDDoubleBitDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, l := range testLayouts {
		c := MustSECDED(l.width, l.checkPos)
		orig := randWord(rng, c)
		c.Encode(&orig)
		for b1 := 0; b1 < c.Width(); b1++ {
			for b2 := b1 + 1; b2 < c.Width(); b2++ {
				w := orig
				w.Flip(b1)
				w.Flip(b2)
				res, _ := c.Check(&w)
				if res != Detected {
					t.Fatalf("%s: double flip (%d,%d) reported %v", l.name, b1, b2, res)
				}
			}
		}
	}
}

func TestSECDEDDataBitsUntouchedByEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, l := range testLayouts {
		c := MustSECDED(l.width, l.checkPos)
		isCheck := make(map[int]bool)
		for _, p := range l.checkPos {
			isCheck[p] = true
		}
		w := randWord(rng, c)
		before := w
		c.Encode(&w)
		for bit := 0; bit < c.Width(); bit++ {
			if isCheck[bit] {
				continue
			}
			if w.Bit(bit) != before.Bit(bit) {
				t.Fatalf("%s: encode modified data bit %d", l.name, bit)
			}
		}
	}
}

func TestSECDEDLayoutValidation(t *testing.T) {
	cases := []struct {
		width    int
		checkPos []int
	}{
		{0, []int{0, 1, 2}},                  // width too small
		{300, []int{0, 1, 2}},                // width too large
		{64, []int{0, 1}},                    // too few check bits
		{64, []int{0, 0, 1}},                 // duplicate
		{64, []int{5, 3, 7}},                 // unsorted
		{64, []int{0, 1, 64}},                // out of range
		{64, []int{0, 1, 2, 3}},              // 3 hamming bits for 60 data bits
		{256, []int{0, 1, 2, 3, 4, 5, 6, 7}}, // 248 data bits > capacity 120
	}
	for i, cse := range cases {
		if _, err := NewSECDED(cse.width, cse.checkPos); err == nil {
			t.Errorf("case %d: expected layout error for width=%d pos=%v",
				i, cse.width, cse.checkPos)
		}
	}
	if _, err := NewSECDED(72, []int{64, 65, 66, 67, 68, 69, 70, 71}); err != nil {
		t.Errorf("classic (72,64) layout rejected: %v", err)
	}
}

func TestSECDEDCodewordRoundTripQuick(t *testing.T) {
	c := MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})
	f := func(v uint64, col uint32) bool {
		var w Word4
		w[0] = v
		w[1] = uint64(col) & 0x00FF_FFFF // data portion only
		c.Encode(&w)
		if res, _ := c.Check(&w); res != OK {
			return false
		}
		return w[0] == v && w[1]&0x00FF_FFFF == uint64(col)&0x00FF_FFFF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSECDEDAnySingleFlipCorrectedQuick(t *testing.T) {
	c := MustSECDED(128, []int{0, 1, 2, 3, 4, 64, 65, 66, 67})
	f := func(a, b uint64, bit uint8) bool {
		var w Word4
		w[0], w[1] = a, b
		c.Encode(&w)
		orig := w
		w.Flip(int(bit) % 128)
		res, _ := c.Check(&w)
		return res == Corrected && w == orig
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWord4Bits(t *testing.T) {
	var w Word4
	for _, bit := range []int{0, 1, 63, 64, 127, 128, 200, 255} {
		if w.Bit(bit) != 0 {
			t.Fatalf("bit %d set in zero word", bit)
		}
		w.SetBit(bit, 1)
		if w.Bit(bit) != 1 {
			t.Fatalf("bit %d not set", bit)
		}
		w.Flip(bit)
		if w.Bit(bit) != 0 {
			t.Fatalf("bit %d not cleared by flip", bit)
		}
	}
	w = Word4{}
	w.SetBit(3, 1)
	w.SetBit(64, 1)
	if w.Parity() != 0 {
		t.Fatal("even popcount should have zero parity")
	}
	w.SetBit(255, 1)
	if w.Parity() != 1 {
		t.Fatal("odd popcount should have parity one")
	}
}

func TestParityHelpers(t *testing.T) {
	if Parity64(0) != 0 || Parity64(1) != 1 || Parity64(3) != 0 {
		t.Fatal("Parity64 wrong on small values")
	}
	f := func(x uint64) bool {
		want := uint64(0)
		for i := 0; i < 64; i++ {
			want ^= (x >> uint(i)) & 1
		}
		return Parity64(x) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckResultString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Detected.String() != "detected" {
		t.Fatal("CheckResult strings wrong")
	}
	if CheckResult(42).String() == "" {
		t.Fatal("unknown CheckResult should still format")
	}
}

func TestSECDEDAccessors(t *testing.T) {
	c := MustSECDED(96, []int{88, 89, 90, 91, 92, 93, 94, 95})
	if c.Width() != 96 || c.DataBits() != 88 || c.CheckBits() != 8 {
		t.Fatalf("accessors wrong: %d %d %d", c.Width(), c.DataBits(), c.CheckBits())
	}
	pos := c.CheckPositions()
	pos[0] = 0 // must not alias internal state
	if c.CheckPositions()[0] != 88 {
		t.Fatal("CheckPositions aliases internal slice")
	}
}

func TestMustSECDEDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustSECDED should panic on invalid layout")
		}
	}()
	MustSECDED(8, []int{0, 1})
}
