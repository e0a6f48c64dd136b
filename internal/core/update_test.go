package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"abft/internal/csr"
)

// TestUpdateRequestIsItsPassAndRead checks a deferred update against the
// pass it defers, followed by a verified read: a product's decode
// (DecodeSources), a part of the vector (RunKept over a block range, the
// sharded scatter's call) and CSR's all-None product, whose sweep
// multiplies the decode's kept values, each leave the same stored words and the same source values, and every run of the
// update detaches it. The decode counts the pass's checks and nothing
// for the read it replaces.
func TestUpdateRequestIsItsPassAndRead(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	const n = 37 // five blocks, the last one partial
	xs, ps, zs := randSlice(rng, n), randSlice(rng, n), randSlice(rng, n)
	for _, s := range []Scheme{None, SECDED64, CRC32C} {
		// vecs returns fresh x, p and z on one counter and the update
		// x += 0.5 p ; p = z - 0.25 p over them.
		vecs := func() (x, p, z *Vector, c *Counters, outs []Lin) {
			c = &Counters{}
			x, p, z = VectorFromSlice(xs, s), VectorFromSlice(ps, s), VectorFromSlice(zs, s)
			for _, v := range []*Vector{x, p, z} {
				v.SetCounters(c)
			}
			return x, p, z, c, []Lin{{Dst: x, A: 0.5, X: p, B: 1, Y: x}, {Dst: p, A: 1, X: z, B: -0.25, Y: p}}
		}
		opt := FusedOptions{Workers: 2}
		x0, p0, _, c0, outs := vecs()
		if _, err := Pass(opt, DotOf{}, outs...); err != nil {
			t.Fatal(err)
		}
		passChecks := c0.Checks()
		want := make([]float64, p0.Blocks()*BlockLen)
		if err := p0.Read(0, p0.Blocks(), want, ModeExclusive); err != nil {
			t.Fatal(err)
		}
		same := func(what string, x, p *Vector) {
			t.Helper()
			if !slices.Equal(x.Raw(), x0.Raw()) || !slices.Equal(p.Raw(), p0.Raw()) {
				t.Errorf("%v %s: stored x or p differs from the pass's", s, what)
			}
		}

		x, p, _, c, outs := vecs()
		var u UpdateRequest
		u.Defer(p, opt, outs...)
		if !u.Pending() || p.PendingUpdate() != &u {
			t.Fatalf("%v: Defer did not attach the update to p", s)
		}
		err := DecodeSources([]*Vector{NewVector(n, s)}, []*Vector{p}, false, func(xbufs [][]float64, _ *DotEpilogue) error {
			if !slices.Equal(bitsOf(xbufs[0]), bitsOf(want)) {
				t.Errorf("%v decode: the source is not the updated p as read", s)
			}
			return nil
		})
		if err != nil || u.Pending() {
			t.Fatalf("%v decode: %v, still pending %t", s, err, u.Pending())
		}
		same("decode", x, p)
		if c.Checks() != passChecks {
			t.Errorf("%v decode: %d checks, want the pass's %d", s, c.Checks(), passChecks)
		}

		// Blocks [1, 3) only: those blocks of x and p, and the kept part.
		x, p, _, _, outs = vecs()
		u.Defer(p, opt, outs...)
		keep := make([]float64, 2*BlockLen)
		if err := u.RunKept(1, 3, keep); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(bitsOf(keep), bitsOf(want[BlockLen:3*BlockLen])) ||
			!slices.Equal(x.Raw()[BlockLen:3*BlockLen], x0.Raw()[BlockLen:3*BlockLen]) ||
			!slices.Equal(p.Raw()[:BlockLen], VectorFromSlice(ps, s).Raw()[:BlockLen]) {
			t.Errorf("%v: RunKept over blocks [1,3) differs from the pass's blocks", s)
		}
		u.Drop()
		if u.Pending() || p.PendingUpdate() != nil {
			t.Errorf("%v: Drop left the update attached", s)
		}

		if s != None {
			continue
		}
		// CSR's all-None product rides the update on its decode, as every
		// protected product does: one run, and the product of the updated p.
		m, err := NewMatrix(csr.Laplacian2D(37, 1), MatrixOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got, ref := NewVector(n, None), NewVector(n, None)
		if err := m.Apply(ref, p0, 1); err != nil {
			t.Fatal(err)
		}
		x, p, _, _, outs = vecs()
		u.Defer(p, opt, outs...)
		if err := m.Apply(got, p, 1); err != nil || u.Pending() {
			t.Fatalf("all-None product: %v, still pending %t", err, u.Pending())
		}
		same("all-None product", x, p)
		if !slices.Equal(got.Raw(), ref.Raw()) {
			t.Error("all-None product: w differs from the product of the updated p")
		}
	}
}

// bitsOf returns the IEEE-754 bits of fs.
func bitsOf(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}
