// Dot-epilogue conformance: a product that answers a dot request on its
// destination from its own sweep (core.DotRequest) is a performance
// knob, never a semantic one. For every format, scheme, read mode,
// worker split, shard count and width, on stencil grids and on a random
// sparsity pattern with empty rows, a dense row and a partial last vector
// block, the
// product with requests attached must write the words the product
// writes, answer with the bits the engine's inner product returns over
// the two vectors afterwards, and make none of that inner product's
// checks; and CG, PCG and BlockCG must iterate to the same bits whether
// or not their products answer.
package op_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// epilogueMatrices are the square operators under test: a grid whose
// last vector block is full (n % core.BlockLen == 0), grids whose last
// block holds 4 and 3 rows, and a random pattern with empty rows, one
// dense row and a last block of 5 rows. Every one splits into 3 shards.
func epilogueMatrices(t *testing.T) map[string]*csr.Matrix {
	t.Helper()
	const n = 37
	rng := rand.New(rand.NewSource(29))
	var entries []csr.Entry
	for r := 0; r < n; r++ {
		switch {
		case r%9 == 4: // empty row
		case r == 17: // dense row
			for c := 0; c < n; c++ {
				entries = append(entries, csr.Entry{Row: r, Col: c, Val: rng.Float64() - 0.5})
			}
		default:
			for k := rng.Intn(5); k >= 0; k-- {
				entries = append(entries, csr.Entry{Row: r, Col: rng.Intn(n), Val: 4*rng.Float64() - 2})
			}
		}
	}
	random, err := csr.New(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*csr.Matrix{
		"grid12x10": csr.Laplacian2D(12, 10),
		"grid12x9":  csr.Laplacian2D(12, 9),
		"grid7x5":   csr.Laplacian2D(7, 5),
		"random37":  random,
	}
}

// epilogueOperator protects plain in format f under scheme s, sharded
// into shards bands when shards > 1 (halo vectors under vec), and
// returns it with the reduction the solver engine would pass it: band
// block ranges tree-reduced for a sharded operator, a flat split over
// workers otherwise.
func epilogueOperator(t *testing.T, plain *csr.Matrix, f op.Format, s, vec core.Scheme, shards, workers int) (core.ProtectedMatrix, core.FusedOptions) {
	t.Helper()
	cfg := op.Config{Scheme: s, RowPtrScheme: s}
	if shards < 2 {
		m, err := op.New(f, plain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, core.FusedOptions{Workers: workers}
	}
	so, err := shard.New(plain, shard.Options{Shards: shards, Format: f, Config: cfg, VectorScheme: vec})
	if err != nil {
		t.Fatal(err)
	}
	var bands [][2]int
	for _, b := range so.BandRanges() {
		bands = append(bands, [2]int{b[0] / core.BlockLen, (b[1] + core.BlockLen - 1) / core.BlockLen})
	}
	return so, core.FusedOptions{BlockBands: bands}
}

// referenceDot is the engine's inner product under opt: the operator's
// band tree for a sharded one, core.Dot over opt.Workers otherwise.
func referenceDot(m core.ProtectedMatrix, a, b *core.Vector, opt core.FusedOptions) (float64, error) {
	if so, ok := m.(*shard.Operator); ok {
		return so.Dot(a, b)
	}
	return core.Dot(a, b, opt.Workers)
}

// TestEpilogueConformanceProduct: the product with dot requests against
// the product followed by the engine's inner product, over every
// configuration of the suite.
func TestEpilogueConformanceProduct(t *testing.T) {
	modes := []core.ReadMode{core.ModeExclusive, core.ModeShared, core.ModeUnverified}
	for name, plain := range epilogueMatrices(t) {
		for _, f := range op.Formats {
			for _, s := range core.Schemes {
				t.Run(fmt.Sprintf("%s_%v_%v", name, f, s), func(t *testing.T) {
					n := plain.Rows()
					for shards := 1; shards <= 3; shards++ {
						for _, mode := range modes {
							for workers := 1; workers <= 4; workers++ {
								for _, k := range []int{1, 8} {
									tag := fmt.Sprintf("shards=%d %v workers=%d k=%d", shards, mode, workers, k)
									// The dot's split differs from the product's.
									m, opt := epilogueOperator(t, plain, f, s, s, shards, 5-workers)
									m.SetReadMode(mode)
									epilogueCase(t, tag, m, opt, n, s, workers, k, false)
								}
							}
						}
					}
				})
			}
		}
	}
}

// epilogueCase runs one product with dot requests and its reference on
// the same operator and operands and demands equal output words, equal
// dot bits and the product's checks only — or, where the operator must
// leave the requests unanswered (unanswered), no answer, and the dots
// from the inner product after the product.
func epilogueCase(t *testing.T, tag string, m core.ProtectedMatrix, opt core.FusedOptions, n int, s core.Scheme, workers, k int, unanswered bool) {
	t.Helper()
	var c core.Counters
	m.SetCounters(&c)
	x := blockMultiVector(blockRefColumns(n, k), s)
	x.SetCounters(&c)
	want, got := core.NewMultiVector(n, k, s), core.NewMultiVector(n, k, s)
	want.SetCounters(&c)
	got.SetCounters(&c)

	before := c.Checks()
	var err error
	if k == 1 {
		err = m.Apply(want.Col(0), x.Col(0), workers)
	} else {
		err = m.ApplyBatch(want, x, workers)
	}
	if err != nil {
		t.Fatalf("%s: product: %v", tag, err)
	}
	wantChecks := c.Checks() - before
	wantDots := make([]float64, k)
	for j := range wantDots {
		if wantDots[j], err = referenceDot(m, x.Col(j), want.Col(j), opt); err != nil {
			t.Fatalf("%s: reference dot: %v", tag, err)
		}
	}

	before = c.Checks()
	reqs := make([]core.DotRequest, k)
	for j := range reqs {
		reqs[j].Ask(got.Col(j), x.Col(j), opt)
	}
	if k == 1 {
		err = m.Apply(got.Col(0), x.Col(0), workers)
	} else {
		err = m.ApplyBatch(got, x, workers)
	}
	if err != nil {
		t.Fatalf("%s: product with requests: %v", tag, err)
	}
	if checks := c.Checks() - before; checks != wantChecks {
		t.Fatalf("%s: product with requests made %d checks, want %d", tag, checks, wantChecks)
	}
	dots := make([]float64, k)
	for j := range reqs {
		var ok bool
		dots[j], ok = reqs[j].Take()
		if ok == unanswered {
			t.Fatalf("%s col %d: answered %v", tag, j, ok)
		}
		if unanswered {
			if dots[j], err = referenceDot(m, x.Col(j), got.Col(j), opt); err != nil {
				t.Fatalf("%s: dot after the product: %v", tag, err)
			}
		}
	}
	for j := 0; j < k; j++ {
		if math.Float64bits(dots[j]) != math.Float64bits(wantDots[j]) {
			t.Fatalf("%s col %d: dot %x, product then dot %x", tag, j,
				math.Float64bits(dots[j]), math.Float64bits(wantDots[j]))
		}
		for i, w := range want.Col(j).Raw() {
			if got.Col(j).Raw()[i] != w {
				t.Fatalf("%s col %d: word %d differs", tag, j, i)
			}
		}
	}
}

// TestEpilogueConformanceShardSchemes: a sharded operator whose landing
// vectors reserve more bits than x (SECDED64 halos, None, SED or
// SECDED128 operands) still answers its band tree's requests, bit for
// bit the product then Dot: each band decodes its interior from x
// itself, so the band's part of the dot is x's whatever the halo
// carries. One asked for a reduction other than its own band tree (a
// flat request: a non-banded wrapper around it) cannot answer from its
// bands and leaves the requests unanswered, with the product's words
// and checks, and the inner product after the product gives the dots.
func TestEpilogueConformanceShardSchemes(t *testing.T) {
	plain := csr.Laplacian2D(7, 5)
	for _, f := range op.Formats {
		for _, k := range []int{1, 8} {
			for _, s := range []core.Scheme{core.None, core.SED, core.SECDED128} {
				m, opt := epilogueOperator(t, plain, f, core.SECDED64, core.SECDED64, 3, 1)
				epilogueCase(t, fmt.Sprintf("%v x=%v k=%d", f, s, k), m, opt, plain.Rows(), s, 1, k, false)
			}
			m, _ := epilogueOperator(t, plain, f, core.SECDED64, core.SECDED64, 3, 1)
			flat := core.FusedOptions{Workers: 1}
			epilogueCase(t, fmt.Sprintf("%v flat k=%d", f, k), m, flat, plain.Rows(), core.SECDED64, 1, k, true)
		}
	}
}

// hiddenDot is an operator whose products never answer a dot request, as
// a product that does not reach a format's sweep would leave it: after
// each product it withdraws the answer (PendingDot for another source).
// hiddenBanded keeps the band decomposition of a sharded one, so only
// the answer differs.
type hiddenDot struct{ a solvers.MatrixOperator }

func (h hiddenDot) Rows() int { return h.a.Rows() }
func (h hiddenDot) Apply(dst, x *core.Vector) error {
	err := h.a.Apply(dst, x)
	dst.PendingDot(nil)
	return err
}
func (h hiddenDot) ApplyBatch(dst, x *core.MultiVector) error {
	err := h.a.ApplyBatch(dst, x)
	for j := 0; j < dst.K(); j++ {
		dst.Col(j).PendingDot(nil)
	}
	return err
}
func (h hiddenDot) ApplyUnverified(dst, x *core.Vector) error { return h.a.ApplyUnverified(dst, x) }
func (h hiddenDot) Diagonal(dst []float64) error              { return h.a.Diagonal(dst) }

type hiddenBanded struct {
	hiddenDot
	so *shard.Operator
}

func (h hiddenBanded) Dot(a, b *core.Vector) (float64, error) { return h.so.Dot(a, b) }
func (h hiddenBanded) BandRanges() [][2]int                   { return h.so.BandRanges() }

// hide returns a with its dot answers withdrawn.
func hide(a solvers.MatrixOperator) solvers.Operator {
	if so, ok := a.M.(*shard.Operator); ok {
		return hiddenBanded{hiddenDot{a}, so}
	}
	return hiddenDot{a}
}

// TestEpilogueConformanceSolvers: CG, PCG and BlockCG with and without
// answered dot requests — coefficients, residual history, iterations and
// every bit of every solution — over every format, flat and sharded,
// with the inner products split across workers; answered, each iteration
// makes exactly two vector checks per stored row (SECDED64, padding to
// whole blocks included) fewer.
func TestEpilogueConformanceSolvers(t *testing.T) {
	for _, f := range op.Formats {
		for _, shards := range []int{1, 3} {
			for _, kind := range []solvers.Kind{solvers.KindCG, solvers.KindPCG, solvers.KindBlockCG} {
				t.Run(fmt.Sprintf("%v_shards%d_%v", f, shards, kind), func(t *testing.T) {
					plain := csr.Laplacian2D(12, 9)
					n := plain.Rows()
					k := 1
					if kind == solvers.KindBlockCG {
						k = 4
					}
					solve := func(hidden bool) ([][]float64, []solvers.Result, uint64) {
						m, _ := epilogueOperator(t, plain, f, core.SECDED64, core.SECDED64, shards, 1)
						var c core.Counters
						m.SetCounters(&c)
						mo := solvers.MatrixOperator{M: m, Workers: 2}
						var a solvers.Operator = mo
						if hidden {
							a = hide(mo)
						}
						opt := solvers.Options{Tol: 1e-10, Workers: 3, RecordHistory: true}
						bcols := blockRefColumns(n, k)
						xs := make([][]float64, k)
						var results []solvers.Result
						if kind != solvers.KindBlockCG {
							x := core.NewVector(n, core.SECDED64)
							b := core.VectorFromSlice(bcols[0], core.SECDED64)
							x.SetCounters(&c)
							b.SetCounters(&c)
							res, err := solvers.Solve(kind, a, x, b, opt)
							if err != nil || !res.Converged {
								t.Fatalf("hidden=%v: %v %+v", hidden, err, res)
							}
							xs[0] = make([]float64, n)
							if err := x.CopyTo(xs[0]); err != nil {
								t.Fatal(err)
							}
							return xs, []solvers.Result{res}, c.Checks()
						}
						x := core.NewMultiVector(n, k, core.SECDED64)
						b := blockMultiVector(bcols, core.SECDED64)
						x.SetCounters(&c)
						b.SetCounters(&c)
						br, err := solvers.BlockCG(a, x, b, opt)
						if err != nil || !br.Converged {
							t.Fatalf("hidden=%v: %v %+v", hidden, err, br.Result)
						}
						for j := range xs {
							xs[j] = make([]float64, n)
							if err := x.Col(j).CopyTo(xs[j]); err != nil {
								t.Fatal(err)
							}
						}
						results = append(results, br.Result)
						return xs, results, c.Checks()
					}
					want, wantRes, wantChecks := solve(true)
					got, gotRes, checks := solve(false)
					for j := range want {
						for i := range want[j] {
							if math.Float64bits(got[j][i]) != math.Float64bits(want[j][i]) {
								t.Fatalf("col %d row %d: %x, without the epilogue %x", j, i,
									math.Float64bits(got[j][i]), math.Float64bits(want[j][i]))
							}
						}
					}
					for i := range wantRes {
						w, g := wantRes[i], gotRes[i]
						if g.Iterations != w.Iterations || !sameFloats(g.Alphas, w.Alphas) ||
							!sameFloats(g.Betas, w.Betas) || !sameFloats(g.History, w.History) {
							t.Fatalf("result %+v, without the epilogue %+v", g, w)
						}
					}
					if kind != solvers.KindBlockCG {
						// Every iteration's p . w verified p and w: one
						// SECDED64 check per stored row each.
						stored := (n + core.BlockLen - 1) / core.BlockLen * core.BlockLen
						if saved := wantChecks - checks; saved != uint64(2*stored*gotRes[0].Iterations) {
							t.Fatalf("the epilogue saved %d checks over %d iterations, want %d",
								saved, gotRes[0].Iterations, 2*stored*gotRes[0].Iterations)
						}
					} else if checks >= wantChecks {
						t.Fatalf("BlockCG made %d checks with the epilogue, %d without", checks, wantChecks)
					}
				})
			}
		}
	}
}

// sameFloats reports whether a and b hold the same bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
