package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"abft/internal/ecc"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
	return out
}

func TestVectorRoundTripAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := randSlice(rng, 37) // deliberately not a multiple of 4
	for _, s := range Schemes {
		v := VectorFromSlice(data, s)
		if v.Len() != len(data) {
			t.Fatalf("%v: len %d want %d", s, v.Len(), len(data))
		}
		got := make([]float64, len(data))
		if err := v.CopyTo(got); err != nil {
			t.Fatalf("%v: CopyTo: %v", s, err)
		}
		for i := range data {
			want := v.Mask(data[i])
			if got[i] != want {
				t.Fatalf("%v: elem %d: got %x want %x", s, i,
					math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

func TestVectorMaskNoise(t *testing.T) {
	// The masking perturbation must stay below 2^-(52-reserved) relative,
	// the bound behind the paper's 2.0e-11 percent convergence result.
	for _, s := range ProtectingSchemes {
		v := NewVector(1, s)
		x := 1.2345678901234567
		rel := math.Abs(v.Mask(x)-x) / x
		limit := math.Pow(2, float64(s.VecReservedBits()-52))
		if rel > limit {
			t.Fatalf("%v: relative noise %g exceeds %g", s, rel, limit)
		}
	}
}

func TestVectorAtSet(t *testing.T) {
	for _, s := range Schemes {
		v := NewVector(10, s)
		if err := v.Set(3, 2.5); err != nil {
			t.Fatalf("%v: Set: %v", s, err)
		}
		got, err := v.At(3)
		if err != nil {
			t.Fatalf("%v: At: %v", s, err)
		}
		if got != v.Mask(2.5) {
			t.Fatalf("%v: got %v want %v", s, got, v.Mask(2.5))
		}
		if _, err := v.At(10); err == nil {
			t.Fatalf("%v: At(10) should fail", s)
		}
		if err := v.Set(-1, 0); err == nil {
			t.Fatalf("%v: Set(-1) should fail", s)
		}
	}
}

func TestVectorSingleFlipHandling(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := randSlice(rng, 16)
	for _, s := range ProtectingSchemes {
		for wi := 0; wi < 16; wi++ {
			for _, bit := range []int{0, 1, 7, 13, 31, 52, 63} {
				v := VectorFromSlice(data, s)
				var c Counters
				v.SetCounters(&c)
				want := make([]float64, 16)
				if err := v.CopyTo(want); err != nil {
					t.Fatal(err)
				}
				v.Raw()[wi] ^= 1 << uint(bit)
				got := make([]float64, 16)
				err := v.CopyTo(got)
				if s == SED {
					if err == nil {
						t.Fatalf("sed: single flip word %d bit %d undetected", wi, bit)
					}
					var fe *FaultError
					if !errors.As(err, &fe) || fe.Structure != StructVector {
						t.Fatalf("sed: wrong error %v", err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%v: single flip word %d bit %d not corrected: %v", s, wi, bit, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v: flip word %d bit %d: value %d corrupted", s, wi, bit, i)
					}
				}
				if c.Corrected() == 0 {
					t.Fatalf("%v: correction not counted", s)
				}
			}
		}
	}
}

func TestVectorCorrectionRepairsStorage(t *testing.T) {
	for _, s := range []Scheme{SECDED64, SECDED128, CRC32C} {
		v := VectorFromSlice([]float64{1, 2, 3, 4}, s)
		v.Raw()[2] ^= 1 << 40
		if _, err := v.At(2); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// A second read must find clean storage: no new correction.
		var c Counters
		v.SetCounters(&c)
		if _, err := v.At(2); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if c.Corrected() != 0 {
			t.Fatalf("%v: storage was not repaired on first read", s)
		}
	}
}

func TestVectorDoubleFlipDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randSlice(rng, 8)
	for _, s := range []Scheme{SECDED64, SECDED128} {
		v := VectorFromSlice(data, s)
		// Two flips inside one codeword.
		v.Raw()[0] ^= 1 << 20
		if s == SECDED64 {
			v.Raw()[0] ^= 1 << 41
		} else {
			v.Raw()[1] ^= 1 << 41
		}
		got := make([]float64, 8)
		err := v.CopyTo(got)
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("%v: double flip not detected: %v", s, err)
		}
		if fe.Scheme != s || fe.Structure != StructVector {
			t.Fatalf("%v: wrong fault metadata: %+v", s, fe)
		}
	}
}

func TestVectorCRCDoubleFlipCorrected(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := randSlice(rng, 8)
	v := VectorFromSlice(data, CRC32C)
	want := make([]float64, 8)
	if err := v.CopyTo(want); err != nil {
		t.Fatal(err)
	}
	// Two flips in one 8-element codeword: within CRC's correction depth.
	v.Raw()[1] ^= 1 << 30
	v.Raw()[2] ^= 1 << 50
	got := make([]float64, 8)
	if err := v.CopyTo(got); err != nil {
		t.Fatalf("crc32c: double flip not corrected: %v", err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("crc32c: element %d wrong after correction", i)
		}
	}
}

func TestVectorCRCTripleFlipDetected(t *testing.T) {
	v := VectorFromSlice([]float64{1, 2, 3, 4}, CRC32C)
	v.Raw()[0] ^= 1 << 30
	v.Raw()[1] ^= 1 << 40
	v.Raw()[2] ^= 1 << 50
	_, err := v.At(0)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("triple flip not detected: %v", err)
	}
}

func TestVectorSEDMissesEvenFlips(t *testing.T) {
	// Parity's documented blind spot: an even number of flips in one
	// codeword passes undetected (an SDC). The test pins the behaviour so
	// the fault-injection campaign's SDC accounting stays meaningful.
	v := VectorFromSlice([]float64{1, 2, 3, 4}, SED)
	v.Raw()[1] ^= 1<<20 | 1<<30
	if _, err := v.At(1); err != nil {
		t.Fatalf("even flips unexpectedly detected: %v", err)
	}
}

func TestVectorCheckAll(t *testing.T) {
	v := VectorFromSlice(make([]float64, 64), SECDED64)
	var c Counters
	v.SetCounters(&c)
	v.Raw()[5] ^= 1 << 33
	v.Raw()[40] ^= 1 << 12
	corrected, err := v.CheckAll()
	if err != nil {
		t.Fatal(err)
	}
	if corrected != 2 {
		t.Fatalf("corrected %d, want 2", corrected)
	}
	if _, err := v.CheckAll(); err != nil {
		t.Fatal(err)
	}
	if got := c.Corrected(); got != 2 {
		t.Fatalf("counter %d, want 2", got)
	}
}

func TestVectorFill(t *testing.T) {
	for _, s := range Schemes {
		v := NewVector(11, s)
		v.Fill(3.75) // exactly representable, immune to masking
		out := make([]float64, 11)
		if err := v.CopyTo(out); err != nil {
			t.Fatal(err)
		}
		for i, x := range out {
			if x != 3.75 {
				t.Fatalf("%v: elem %d = %v", s, i, x)
			}
		}
	}
}

func TestVectorClone(t *testing.T) {
	v := VectorFromSlice([]float64{1, 2, 3}, SECDED64)
	w := v.Clone()
	w.Raw()[0] ^= 1 << 30
	if _, err := v.At(0); err != nil {
		t.Fatal("clone shares storage")
	}
	var c Counters
	v.SetCounters(&c)
	if _, err := v.At(0); err != nil {
		t.Fatal(err)
	}
	if c.Corrected() != 0 {
		t.Fatal("clone corruption visible through original")
	}
}

func TestVectorReadBlockNoCheck(t *testing.T) {
	v := VectorFromSlice([]float64{1, 2, 3, 4}, SED)
	v.Raw()[0] ^= 1 << 10 // corrupt; NoCheck must not care
	var buf [BlockLen]float64
	v.ReadBlockNoCheck(0, &buf)
	if buf[1] != v.Mask(2) {
		t.Fatalf("NoCheck read wrong: %v", buf)
	}
}

func TestVectorCopyToShortDst(t *testing.T) {
	v := NewVector(8, SED)
	if err := v.CopyTo(make([]float64, 4)); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestVectorNegativeLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewVector(-1, SED)
}

func TestVectorCRCBackends(t *testing.T) {
	data := []float64{1.5, -2.25, 3.125, 1e-30, 7, 8, 9, 10}
	hw := VectorFromSlice(data, CRC32C)
	sw := NewVector(len(data), CRC32C)
	sw.SetCRCBackend(ecc.Software)
	for i, x := range data {
		if err := sw.Set(i, x); err != nil {
			t.Fatal(err)
		}
	}
	for i := range hw.Raw() {
		if hw.Raw()[i] != sw.Raw()[i] {
			t.Fatalf("word %d differs between backends", i)
		}
	}
}

func TestVectorRoundTripQuick(t *testing.T) {
	for _, s := range Schemes {
		s := s
		f := func(raw []float64) bool {
			v := VectorFromSlice(raw, s)
			out := make([]float64, len(raw))
			if err := v.CopyTo(out); err != nil {
				return false
			}
			for i := range raw {
				if math.IsNaN(raw[i]) {
					if !math.IsNaN(out[i]) {
						return false
					}
					continue
				}
				if out[i] != v.Mask(raw[i]) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

func TestVectorAnySingleFlipNeverSilentQuick(t *testing.T) {
	// The core guarantee: no single bit flip in a protected vector is ever
	// silent — it is either corrected or reported.
	rng := rand.New(rand.NewSource(5))
	for _, s := range ProtectingSchemes {
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			data := randSlice(r, 12)
			v := VectorFromSlice(data, s)
			want := make([]float64, 12)
			if v.CopyTo(want) != nil {
				return false
			}
			w := r.Intn(12)
			bit := r.Intn(64)
			v.Raw()[w] ^= 1 << uint(bit)
			got := make([]float64, 12)
			err := v.CopyTo(got)
			if err != nil {
				return true // detected
			}
			for i := range want {
				if got[i] != want[i] {
					return false // silent corruption
				}
			}
			return true // corrected
		}
		cfg := &quick.Config{MaxCount: 200, Rand: rng}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
	}
}

// TestMultiVectorView: a view's column j is blocks [b0, b0+⌈n/BlockLen⌉) of
// parent j — a block written through the view is that block of the
// parent, encoded under the parent's scheme and verified by the parent's
// reads — it carries the parent's counters, and re-pointing a view of the
// same width allocates nothing.
func TestMultiVectorView(t *testing.T) {
	for _, s := range Schemes {
		var ca, cb Counters
		const n, last = 7*BlockLen - 2, 6 * BlockLen // the last block has two padding rows
		parents := []*Vector{NewVector(n, s), NewVector(n, s)}
		parents[0].SetCounters(&ca)
		parents[1].SetCounters(&cb)
		var mv MultiVector
		mv.View(parents, 5, n-5*BlockLen) // blocks 5 and 6, the last, partial, block included
		if mv.K() != 2 || mv.Len() != n-5*BlockLen || mv.Blocks() != 2 || mv.Col(1).Counters() != &cb {
			t.Fatalf("%v: view k=%d len=%d blocks=%d", s, mv.K(), mv.Len(), mv.Blocks())
		}
		src := [BlockLen]float64{1.5, -2} // rows last and last+1
		mv.Col(1).WriteBlock(1, &src)
		got := make([]float64, n)
		if err := parents[1].CopyTo(got); err != nil {
			t.Fatalf("%v: parent read of a block written through the view: %v", s, err)
		}
		if got[last] != parents[1].Mask(1.5) || got[last+1] != parents[1].Mask(-2) || got[last-1] != 0 {
			t.Fatalf("%v: parent rows %d.. = %v", s, last-1, got[last-1:])
		}
		if allocs := testing.AllocsPerRun(10, func() { mv.View(parents, 0, 8) }); allocs != 0 {
			t.Fatalf("%v: re-pointing a view allocates %v times", s, allocs)
		}
	}
}
