package core

import (
	"math"
	"runtime"
	"testing"
)

// fusedTestVec builds a protected vector with deterministic, scheme-mask
// friendly values.
func fusedTestVec(n int, s Scheme, seed int) *Vector {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((i*13+seed*7)%29) - 14 + float64((i+seed)%7)/8
	}
	return VectorFromSlice(xs, s)
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestFusedAxpyDotMatchesUnfused drives the fused CG tail update and the
// unfused three-kernel sequence over identical inputs and demands
// bit-identical vectors and norm, per scheme and per worker count — and
// four fifths of the codeword checks: the fused pass decodes each of x,
// p, r, q once, the unfused sequence five vectors' worth (x, p; r, q;
// r once in r·r, which names it twice).
func TestFusedAxpyDotMatchesUnfused(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 103
	const alpha = 0.8125
	// Codewords per vector block: one per word under SED and SECDED64,
	// one per word pair under SECDED128, one per block under CRC32C.
	codewordsPerBlock := func(s Scheme) uint64 {
		if s == None {
			return 0
		}
		return uint64(BlockLen / s.VecGroup())
	}
	for _, s := range Schemes {
		for _, workers := range []int{1, 4} {
			x1 := fusedTestVec(n, s, 1)
			p1 := fusedTestVec(n, s, 2)
			r1 := fusedTestVec(n, s, 3)
			q1 := fusedTestVec(n, s, 4)
			x2, p2, r2, q2 := x1.Clone(), p1.Clone(), r1.Clone(), q1.Clone()
			unfused, fused := &Counters{}, &Counters{}
			for _, v := range []*Vector{x1, p1, r1, q1} {
				v.SetCounters(unfused)
			}
			for _, v := range []*Vector{x2, p2, r2, q2} {
				v.SetCounters(fused)
			}

			if err := Axpy(x1, alpha, p1, workers); err != nil {
				t.Fatal(err)
			}
			if err := Axpy(r1, -alpha, q1, workers); err != nil {
				t.Fatal(err)
			}
			want, err := Dot(r1, r1, workers)
			if err != nil {
				t.Fatal(err)
			}

			got, err := FusedAxpyDot(x2, alpha, p2, r2, q2, FusedOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Fatalf("%v workers=%d: norm %x want %x", s, workers,
					math.Float64bits(got), math.Float64bits(want))
			}
			for i, w := range x1.Raw() {
				if x2.Raw()[i] != w {
					t.Fatalf("%v workers=%d: x word %d differs", s, workers, i)
				}
			}
			for i, w := range r1.Raw() {
				if r2.Raw()[i] != w {
					t.Fatalf("%v workers=%d: r word %d differs", s, workers, i)
				}
			}
			perVector := uint64(x1.Blocks()) * codewordsPerBlock(s)
			if got, want := unfused.Checks(), 5*perVector; got != want {
				t.Fatalf("%v workers=%d: unfused tail made %d checks, want %d", s, workers, got, want)
			}
			if got, want := fused.Checks(), 4*perVector; got != want {
				t.Fatalf("%v workers=%d: fused tail made %d checks, want %d", s, workers, got, want)
			}
		}
	}
}

// TestFusedUpdateNormMatchesUnfused checks the residual-formation fusion
// (dst = alpha*x + beta*y; dst.dst) against Waxpby followed by Dot.
func TestFusedUpdateNormMatchesUnfused(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	const n = 97
	for _, s := range Schemes {
		for _, workers := range []int{1, 4} {
			b := fusedTestVec(n, s, 5)
			w := fusedTestVec(n, s, 6)
			r1 := NewVector(n, s)
			r2 := NewVector(n, s)

			if err := Waxpby(r1, 1, b, -1, w, workers); err != nil {
				t.Fatal(err)
			}
			want, err := Dot(r1, r1, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FusedUpdateNorm(r2, 1, b, -1, w, FusedOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(got, want) {
				t.Fatalf("%v workers=%d: norm %x want %x", s, workers,
					math.Float64bits(got), math.Float64bits(want))
			}
			for i, word := range r1.Raw() {
				if r2.Raw()[i] != word {
					t.Fatalf("%v workers=%d: dst word %d differs", s, workers, i)
				}
			}
		}
	}
}

// TestFusedTreeReduceMatchesBandedReference checks the banded
// decomposition: one partial per block band, pairwise tree reduction —
// the sharded operators' Dot discipline — against a hand-rolled
// reference over the same bands.
func TestFusedTreeReduceMatchesBandedReference(t *testing.T) {
	const n = 30 * BlockLen
	bands := [][2]int{{0, 8}, {8, 16}, {16, 24}, {24, 30}}
	for _, s := range Schemes {
		x := fusedTestVec(n, s, 1)
		p := fusedTestVec(n, s, 2)
		r := fusedTestVec(n, s, 3)
		q := fusedTestVec(n, s, 4)
		xf, pf, rf, qf := x.Clone(), p.Clone(), r.Clone(), q.Clone()
		const alpha = -1.375

		// Reference: unfused updates, then per-band partials in strict
		// element order reduced by the same binary tree.
		if err := Axpy(x, alpha, p, 1); err != nil {
			t.Fatal(err)
		}
		if err := Axpy(r, -alpha, q, 1); err != nil {
			t.Fatal(err)
		}
		partials := make([]float64, len(bands))
		for bi, bd := range bands {
			var rv [BlockLen]float64
			var sum float64
			for blk := bd[0]; blk < bd[1]; blk++ {
				if err := r.Read(blk, blk+1, rv[:], ModeExclusive); err != nil {
					t.Fatal(err)
				}
				for _, v := range rv {
					sum += v * v
				}
			}
			partials[bi] = sum
		}
		for step := 1; step < len(partials); step *= 2 {
			for i := 0; i+step < len(partials); i += 2 * step {
				partials[i] += partials[i+step]
			}
		}
		want := partials[0]

		got, err := FusedAxpyDot(xf, alpha, pf, rf, qf,
			FusedOptions{BlockBands: bands})
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("%v: banded norm %x want %x", s,
				math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestFusedReadModeDiscipline verifies the mode ladder on the fused
// path: exclusive commits a correctable flip back to storage, shared
// corrects in-register but leaves the flip in place, unverified skips
// decode entirely and leaves the counters untouched.
func TestFusedReadModeDiscipline(t *testing.T) {
	const n = 64
	inject := func() (*Vector, *Vector, *Vector, *Vector) {
		x := fusedTestVec(n, SECDED64, 1)
		p := fusedTestVec(n, SECDED64, 2)
		r := fusedTestVec(n, SECDED64, 3)
		q := fusedTestVec(n, SECDED64, 4)
		p.Raw()[8] ^= 1 << 33 // correctable single flip in p's payload
		return x, p, r, q
	}

	// Exclusive: the decode corrects the flip and commits the repair.
	x, p, r, q := inject()
	c := &Counters{}
	p.SetCounters(c)
	if _, err := FusedAxpyDot(x, 0.5, p, r, q, FusedOptions{Mode: ModeExclusive}); err != nil {
		t.Fatal(err)
	}
	if c.Corrected() == 0 {
		t.Fatal("exclusive fused read did not correct the flip")
	}
	if corrected, err := p.CheckAll(); err != nil || corrected != 0 {
		t.Fatalf("exclusive fused read left the flip in storage: corrected=%d err=%v", corrected, err)
	}

	// Shared: same corrected values, but storage keeps the flip.
	x, p, r, q = inject()
	xs, rs := x.Clone(), r.Clone()
	gotShared, err := FusedAxpyDot(x, 0.5, p, r, q, FusedOptions{Mode: ModeShared})
	if err != nil {
		t.Fatal(err)
	}
	if corrected, err := p.CheckAll(); err != nil || corrected != 1 {
		t.Fatalf("shared fused read should preserve the flip: corrected=%d err=%v", corrected, err)
	}
	// The shared result must match an exclusive run over clean inputs.
	_, pc, _, qc := inject()
	pc.Raw()[8] ^= 1 << 33 // undo the injected flip: clean copy
	wantShared, err := FusedAxpyDot(xs, 0.5, pc, rs, qc, FusedOptions{Mode: ModeExclusive})
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(gotShared, wantShared) {
		t.Fatalf("shared fused norm %x differs from corrected reference %x",
			math.Float64bits(gotShared), math.Float64bits(wantShared))
	}

	// Unverified: no decode, no counter traffic, flip streams through.
	x, p, r, q = inject()
	c = &Counters{}
	x.SetCounters(c)
	p.SetCounters(c)
	r.SetCounters(c)
	q.SetCounters(c)
	if _, err := FusedAxpyDot(x, 0.5, p, r, q, FusedOptions{Mode: ModeUnverified}); err != nil {
		t.Fatal(err)
	}
	if c.Checks() != 0 || c.Corrected() != 0 {
		t.Fatalf("unverified fused read touched counters: checks=%d corrected=%d",
			c.Checks(), c.Corrected())
	}

	// Uncorrectable damage must surface as an error on verified paths.
	x, p, r, q = inject()
	p.Raw()[8] ^= 1 << 50 // second flip in the same codeword
	if _, err := FusedAxpyDot(x, 0.5, p, r, q, FusedOptions{}); err == nil {
		t.Fatal("double flip slipped through the fused verified read")
	}
}

// BenchmarkFusedAxpyDot pits the fused single-pass update against the
// unfused Axpy+Axpy+Dot sequence over a SECDED64-protected vector set —
// the per-iteration CG tail the solvers dispatch.
func BenchmarkFusedAxpyDot(b *testing.B) {
	const n = 4096
	x := fusedTestVec(n, SECDED64, 1)
	p := fusedTestVec(n, SECDED64, 2)
	r := fusedTestVec(n, SECDED64, 3)
	q := fusedTestVec(n, SECDED64, 4)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := FusedAxpyDot(x, 0.5, p, r, q, FusedOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Axpy(x, 0.5, p, 1); err != nil {
				b.Fatal(err)
			}
			if err := Axpy(r, -0.5, q, 1); err != nil {
				b.Fatal(err)
			}
			if _, err := Dot(r, r, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestFusedLengthMismatch(t *testing.T) {
	x := fusedTestVec(16, SECDED64, 1)
	short := fusedTestVec(12, SECDED64, 2)
	ok := fusedTestVec(16, SECDED64, 3)
	if _, err := FusedAxpyDot(x, 1, short, ok, ok, FusedOptions{}); err == nil {
		t.Fatal("FusedAxpyDot accepted mismatched p")
	}
	if _, err := FusedUpdateNorm(x, 1, ok, 1, short, FusedOptions{}); err == nil {
		t.Fatal("FusedUpdateNorm accepted mismatched y")
	}
}
