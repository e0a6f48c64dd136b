package core

import (
	"errors"
	"math"
	"runtime"
	"testing"
)

// TestPassParallelDotCommits: every block of an exclusive pass belongs to
// one range, so a correction found by a parallel Dot is written back to
// storage like a serial one's.
func TestPassParallelDotCommits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const n = 13 * BlockLen
	for _, s := range []Scheme{SECDED64, SECDED128, CRC32C} {
		a := fusedTestVec(n, s, 1)
		b := fusedTestVec(n, s, 2)
		clean := append([]uint64(nil), a.Raw()...)
		a.Raw()[11*BlockLen+5] ^= 1 << 40 // the last range's
		var c Counters
		a.SetCounters(&c)
		if _, err := Dot(a, b, 4); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if c.Corrected() != 1 {
			t.Fatalf("%v: %d corrections, want 1", s, c.Corrected())
		}
		for i, w := range a.Raw() {
			if w != clean[i] {
				t.Fatalf("%v: storage word %d not repaired by a parallel Dot", s, i)
			}
		}
	}
}

// TestPassReadsANamedTwiceVectorOnce: r·r and s·r + 0·r read r, and count
// its checks, once.
func TestPassReadsANamedTwiceVectorOnce(t *testing.T) {
	const n = 29
	for _, s := range ProtectingSchemes {
		r := fusedTestVec(n, s, 3)
		v := NewVector(n, s)
		var c Counters
		r.SetCounters(&c)
		perVector := uint64(r.Blocks() * BlockLen / s.VecGroup())
		if _, err := Dot(r, r, 1); err != nil {
			t.Fatal(err)
		}
		if c.Checks() != perVector {
			t.Fatalf("%v: Dot(r, r) made %d checks, want %d", s, c.Checks(), perVector)
		}
		c = Counters{}
		if err := Waxpby(v, 0.5, r, 0, r, 1); err != nil {
			t.Fatal(err)
		}
		if c.Checks() != perVector {
			t.Fatalf("%v: Waxpby(v, s, r, 0, r) made %d checks, want %d", s, c.Checks(), perVector)
		}
	}
}

// TestPassFirstSourceErrorWins: with uncorrectable damage in the same
// block of two sources, the error is the one of the source read first —
// X before Y, output by output — whatever the damaged words' order.
func TestPassFirstSourceErrorWins(t *testing.T) {
	const n = 4 * BlockLen
	double := func(v *Vector, word int) { v.Raw()[word] ^= 1<<20 | 1<<45 }
	index := func(err error) int {
		var fe *FaultError
		if !errors.As(err, &fe) {
			t.Fatalf("no fault error: %v", err)
		}
		return fe.Index
	}
	vecs := func() (x, y, z, w *Vector) {
		return fusedTestVec(n, SECDED64, 1), fusedTestVec(n, SECDED64, 2),
			fusedTestVec(n, SECDED64, 3), fusedTestVec(n, SECDED64, 4)
	}

	a, b, _, _ := vecs()
	double(a, 2*BlockLen+6)
	double(b, 2*BlockLen+1)
	_, err := Dot(a, b, 1)
	if got := index(err); got != 2*BlockLen+6 {
		t.Fatalf("Dot: error names word %d, want a's", got)
	}

	x, y, dst, _ := vecs()
	double(x, 2*BlockLen+7)
	double(y, 2*BlockLen+0)
	if got := index(Waxpby(dst, 1, x, 1, y, 1)); got != 2*BlockLen+7 {
		t.Fatalf("Waxpby: error names word %d, want x's", got)
	}

	// FusedAxpyDot reads p, x, q, r.
	x, p, r, q := vecs()
	double(q, 2*BlockLen+1)
	double(p, 2*BlockLen+3)
	_, err = FusedAxpyDot(x, 0.5, p, r, q, FusedOptions{Workers: 1})
	if got := index(err); got != 2*BlockLen+3 {
		t.Fatalf("FusedAxpyDot: error names word %d, want p's", got)
	}
}

// TestPassCopyIsVerbatim: a copy moves a signalling NaN's payload bit for
// bit (1·x would quiet it), under every scheme.
func TestPassCopyIsVerbatim(t *testing.T) {
	const snan = 0x7FF4_0000_0000_0000 // quiet bit clear, payload above every reserved bit
	for _, s := range Schemes {
		src := NewVector(BlockLen, s)
		src.WriteBlock(0, &[BlockLen]float64{1, math.Float64frombits(snan), 3})
		dst := NewVector(BlockLen, s)
		if err := Copy(dst, src, 1); err != nil {
			t.Fatal(err)
		}
		var got [BlockLen]float64
		if err := dst.ReadBlock(0, &got); err != nil {
			t.Fatal(err)
		}
		if bits := math.Float64bits(got[1]); bits != snan {
			t.Fatalf("%v: copied NaN is %#x, want %#x", s, bits, uint64(snan))
		}
	}
}
