// Fused-kernel conformance: core.FusedAxpyDot and core.FusedUpdateNorm
// must reproduce the unfused kernel sequence bit-for-bit in the setting
// the solvers actually run them — vectors produced by a real operator
// apply, per storage format, per protection scheme, per read mode of
// that apply, and
// over the sharded composite's band/tree dot discipline. The suite
// lives here, next to the operator conformance tests, because it pins
// the same contract at the solver-iteration granularity: fusing the
// update with its reduction is a performance knob, never a semantic
// one.
package op_test

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"abft/internal/core"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// fusedIterationVectors builds the vector set of one CG tail update —
// x, p, r under the scheme and q = A p through the format's verified
// apply — from the shared reference data.
func fusedIterationVectors(t *testing.T, a interface {
	Apply(dst, x *core.Vector, workers int) error
	Rows() int
}, s core.Scheme) (x, p, r, q *core.Vector) {
	t.Helper()
	n := a.Rows()
	xs := shardRefVector(n)
	ps := make([]float64, n)
	rs := make([]float64, n)
	for i := range ps {
		ps[i] = xs[(i+7)%n] / 2
		rs[i] = xs[(i+3)%n] - 1
	}
	x = core.VectorFromSlice(xs, s)
	p = core.VectorFromSlice(ps, s)
	r = core.VectorFromSlice(rs, s)
	q = core.NewVector(n, s)
	if err := a.Apply(q, p, 1); err != nil {
		t.Fatal(err)
	}
	return x, p, r, q
}

// TestFusedConformanceMatchesUnfused drives the fused tail update and
// the unfused Axpy+Axpy+Dot sequence over operator-produced inputs for
// every format x scheme x read mode of the operator's apply and demands
// bit-equal vectors and norm. The reference's q comes from an exclusive
// apply; fault-free, every mode must produce the same q — the modes
// differ only in commit/decode side effects. The fused pass itself
// always reads verified and commits.
func TestFusedConformanceMatchesUnfused(t *testing.T) {
	modes := []core.ReadMode{core.ModeExclusive, core.ModeShared, core.ModeUnverified}
	forEachPair(t, func(t *testing.T, f op.Format, s core.Scheme) {
		plain := shardTestMatrix()
		m, err := op.New(f, plain, op.Config{Scheme: s, RowPtrScheme: s})
		if err != nil {
			t.Fatal(err)
		}
		const alpha = 0.59375
		// Unfused reference once per pair.
		x1, p1, r1, q1 := fusedIterationVectors(t, m, s)
		if err := core.Axpy(x1, alpha, p1, 1); err != nil {
			t.Fatal(err)
		}
		if err := core.Axpy(r1, -alpha, q1, 1); err != nil {
			t.Fatal(err)
		}
		want, err := core.Dot(r1, r1, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range modes {
			t.Run(mode.String(), func(t *testing.T) {
				m.SetReadMode(mode)
				x2, p2, r2, q2 := fusedIterationVectors(t, m, s)
				got, err := core.FusedAxpyDot(x2, alpha, p2, r2, q2,
					core.FusedOptions{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("norm %x want %x", math.Float64bits(got), math.Float64bits(want))
				}
				for i, w := range x1.Raw() {
					if x2.Raw()[i] != w {
						t.Fatalf("x word %d differs", i)
					}
				}
				for i, w := range r1.Raw() {
					if r2.Raw()[i] != w {
						t.Fatalf("r word %d differs", i)
					}
				}
			})
		}
	})
}

// TestFusedConformanceSharded pins the banded discipline: over the
// sharded composite, the fused kernel with the operator's band
// decomposition and tree reduction must match the unfused sequence
// closed by shard.Operator.Dot — the reduction every solver inner
// product over a sharded operator uses — for every format and shard
// count.
func TestFusedConformanceSharded(t *testing.T) {
	forEachFormatSharded(t, func(t *testing.T, f op.Format, shards int) {
		plain := shardTestMatrix()
		cfg := op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}
		sh, err := shard.New(plain, shard.Options{Shards: shards, Format: f, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		const alpha = -0.78125
		x1, p1, r1, q1 := fusedIterationVectors(t, sh, core.SECDED64)
		if err := core.Axpy(x1, alpha, p1, 1); err != nil {
			t.Fatal(err)
		}
		if err := core.Axpy(r1, -alpha, q1, 1); err != nil {
			t.Fatal(err)
		}
		want, err := sh.Dot(r1, r1)
		if err != nil {
			t.Fatal(err)
		}

		bands := sh.BandRanges()
		blockBands := make([][2]int, len(bands))
		for i, bd := range bands {
			blockBands[i] = [2]int{bd[0] / core.BlockLen, (bd[1] + core.BlockLen - 1) / core.BlockLen}
		}
		x2, p2, r2, q2 := fusedIterationVectors(t, sh, core.SECDED64)
		got, err := core.FusedAxpyDot(x2, alpha, p2, r2, q2,
			core.FusedOptions{BlockBands: blockBands})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("banded norm %x want %x", math.Float64bits(got), math.Float64bits(want))
		}
		for i, w := range r1.Raw() {
			if r2.Raw()[i] != w {
				t.Fatalf("r word %d differs", i)
			}
		}
	})
}

// TestFusedSolversConcurrentStress hammers the shared kernel worker
// pool from concurrent solves — sharded CG next to flat FGMRES, each
// with multi-range decompositions — so the race detector sees task
// recycling and range claiming under real solver traffic.
func TestFusedSolversConcurrentStress(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	plain := shardTestMatrix()
	n := plain.Rows()
	xs := shardRefVector(n)
	bs := make([]float64, n)
	plain.SpMV(bs, xs)

	solves := 4
	if testing.Short() {
		solves = 2
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*solves)
	for i := 0; i < solves; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sh, err := shard.New(plain, shard.Options{
				Shards: 3, Format: op.Formats[i%len(op.Formats)],
				Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64},
			})
			if err != nil {
				errs <- err
				return
			}
			x := core.NewVector(n, core.SECDED64)
			b := core.VectorFromSlice(bs, core.SECDED64)
			res, err := solvers.CG(solvers.MatrixOperator{M: sh, Workers: 2}, x, b,
				solvers.Options{Tol: 1e-8, RelativeTol: true, Workers: 2})
			if err != nil {
				errs <- fmt.Errorf("sharded cg %d: %w", i, err)
			} else if !res.Converged {
				errs <- fmt.Errorf("sharded cg %d did not converge", i)
			}
		}(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := op.New(op.Formats[i%len(op.Formats)], plain,
				op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
			if err != nil {
				errs <- err
				return
			}
			x := core.NewVector(n, core.SECDED64)
			b := core.VectorFromSlice(bs, core.SECDED64)
			res, err := solvers.FGMRES(solvers.MatrixOperator{M: m, Workers: 2}, x, b,
				solvers.Options{Tol: 1e-8, RelativeTol: true, Workers: 2})
			if err != nil {
				errs <- fmt.Errorf("fgmres %d: %w", i, err)
			} else if !res.Converged {
				errs <- fmt.Errorf("fgmres %d did not converge", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
