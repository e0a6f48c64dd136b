// Batched-solve conformance: a multi-right-hand-side solve is a
// throughput knob, never a semantic one. For every storage format,
// sharded and unsharded, preconditioned and not, BlockCG's per-column
// solutions must be bit-identical to k independent single-RHS solves —
// and stay so when live block state is corrupted mid-solve under
// recovery=rollback. The suite lives here, next to the operator
// conformance tests, because it pins the batched kernels' contract end
// to end through the solver layer.
package op_test

import (
	"fmt"
	"math"
	"testing"

	"abft/internal/core"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// blockRefColumns builds k deterministic, mutually distinct right-hand
// sides (column 0 matches shardRefVector).
func blockRefColumns(n, k int) [][]float64 {
	cols := make([][]float64, k)
	for j := range cols {
		cols[j] = make([]float64, n)
		for i := range cols[j] {
			cols[j][i] = float64((i*13+j*7)%29) - 14 + float64((i+j)%7)/8
		}
	}
	return cols
}

func blockMultiVector(cols [][]float64, s core.Scheme) *core.MultiVector {
	vecs := make([]*core.Vector, len(cols))
	for j := range cols {
		vecs[j] = core.VectorFromSlice(cols[j], s)
	}
	mv, err := core.WrapMultiVector(vecs...)
	if err != nil {
		panic(err)
	}
	return mv
}

// TestShardedConformanceApplyBatchParity: the sharded composite's
// batched apply — one scatter/exchange/local pipeline for the whole
// batch, halo packs carrying k values per boundary element — must
// reproduce the single operator's per-column Apply bit-for-bit, for
// every format, shard count and worker count, with protected and
// unprotected vectors.
func TestShardedConformanceApplyBatchParity(t *testing.T) {
	const k = 3
	forEachFormatSharded(t, func(t *testing.T, f op.Format, shards int) {
		plain := shardTestMatrix()
		cfg := op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}
		single, err := op.New(f, plain, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := shard.New(plain, shard.Options{
			Shards: shards, Format: f, Config: cfg, VectorScheme: core.SECDED64,
		})
		if err != nil {
			t.Fatal(err)
		}
		cols := blockRefColumns(plain.Cols32(), k)
		for _, vs := range []core.Scheme{core.None, core.SECDED64} {
			for _, workers := range []int{1, 4} {
				x := blockMultiVector(cols, vs)
				dst := core.NewMultiVector(sharded.Rows(), k, vs)
				if err := sharded.ApplyBatch(dst, x, workers); err != nil {
					t.Fatalf("vs=%v workers=%d: %v", vs, workers, err)
				}
				for j := 0; j < k; j++ {
					want := core.NewVector(single.Rows(), vs)
					if err := single.Apply(want, x.Col(j), 1); err != nil {
						t.Fatal(err)
					}
					wantOut := make([]float64, single.Rows())
					gotOut := make([]float64, single.Rows())
					if err := want.CopyTo(wantOut); err != nil {
						t.Fatal(err)
					}
					if err := dst.Col(j).CopyTo(gotOut); err != nil {
						t.Fatal(err)
					}
					for i := range wantOut {
						if gotOut[i] != wantOut[i] {
							t.Fatalf("vs=%v workers=%d col %d row %d: sharded batch %x, single %x",
								vs, workers, j, i,
								math.Float64bits(gotOut[i]), math.Float64bits(wantOut[i]))
						}
					}
				}
			}
		}
	})
}

// blockSolveBatch runs a batched solve with SECDED64 dynamic vectors and
// returns the per-column solutions and the batch result.
func blockSolveBatch(t *testing.T, kind solvers.Kind, a solvers.Operator, k int,
	opt solvers.Options) ([][]float64, solvers.BatchResult) {
	t.Helper()
	n := a.Rows()
	xcols := make([]*core.Vector, k)
	for j := range xcols {
		xcols[j] = core.NewVector(n, core.SECDED64)
	}
	x, err := core.WrapMultiVector(xcols...)
	if err != nil {
		t.Fatal(err)
	}
	b := blockMultiVector(blockRefColumns(n, k), core.SECDED64)
	br, err := solvers.SolveBatch(kind, a, x, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Converged {
		t.Fatalf("batch did not converge: %+v", br.Result)
	}
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, n)
		if err := x.Col(j).CopyTo(out[j]); err != nil {
			t.Fatal(err)
		}
	}
	return out, br
}

// TestConformanceBlockCGParity: for every format, sharded and unsharded,
// with and without preconditioning, at width 1 and width 3, BlockCG's
// per-column solutions, iteration counts and residual norms must match
// independent single-RHS solves exactly — CG and BlockCG drive the same
// column recurrence, and width 1 is a width like any other.
func TestConformanceBlockCGParity(t *testing.T) {
	for _, f := range op.Formats {
		for _, shards := range []int{0, 3} {
			for _, kind := range []solvers.Kind{solvers.KindCG, solvers.KindPCG} {
				t.Run(fmt.Sprintf("%v_shards%d_%v", f, shards, kind), func(t *testing.T) {
					for _, k := range []int{1, 3} {
						opt := solvers.Options{Tol: 1e-10}
						a := recoveryOperator(t, f, shards)
						got, br := blockSolveBatch(t, kind, a, k, opt)
						if len(br.Columns) != k {
							t.Fatalf("batch reported %d columns, want %d", len(br.Columns), k)
						}
						bcols := blockRefColumns(a.Rows(), k)
						for j := 0; j < k; j++ {
							x := core.NewVector(a.Rows(), core.SECDED64)
							b := core.VectorFromSlice(bcols[j], core.SECDED64)
							res, err := solvers.Solve(kind, a, x, b, opt)
							if err != nil {
								t.Fatal(err)
							}
							want := make([]float64, a.Rows())
							if err := x.CopyTo(want); err != nil {
								t.Fatal(err)
							}
							for i := range want {
								if got[j][i] != want[i] {
									t.Fatalf("k=%d col %d row %d: batch %x, single %x", k, j, i,
										math.Float64bits(got[j][i]), math.Float64bits(want[i]))
								}
							}
							c := br.Columns[j]
							if !c.Converged || c.Iterations != res.Iterations || c.ResidualNorm != res.ResidualNorm {
								t.Fatalf("k=%d col %d: batch %+v, single iterations=%d norm=%v",
									k, j, c, res.Iterations, res.ResidualNorm)
							}
						}
					}
				})
			}
		}
	}
}

// TestConformanceBlockCGRollbackParity corrupts live block state —
// different columns of X, R and P — with guaranteed-uncorrectable
// double flips mid-solve: under recovery=rollback the batched solve
// must land on the bit-exact fault-free block solution, reporting the
// rollbacks it took. The checkpoint must cover the full block state,
// per-column convergence records included.
func TestConformanceBlockCGRollbackParity(t *testing.T) {
	const k = 2
	for _, f := range []op.Format{op.CSR, op.SELLCS} {
		for _, shards := range []int{0, 3} {
			t.Run(fmt.Sprintf("%v_shards%d", f, shards), func(t *testing.T) {
				opt := solvers.Options{
					Tol:      1e-10,
					Recovery: solvers.Recovery{Policy: solvers.RecoveryRollback, Interval: 4},
				}
				want, cleanRes := blockSolveBatch(t, solvers.KindBlockCG,
					recoveryOperator(t, f, shards), k, opt)

				struck := 0
				opt.StateHook = func(it int, live []*core.Vector) {
					// Live layout is x,r,p per column: strike a different
					// vector each time, across a checkpoint boundary.
					if (it == 3 && struck == 0) || (it == 11 && struck == 1) {
						v := live[(struck*4)%len(live)]
						v.Raw()[5] ^= 1<<17 | 1<<41
						struck++
					}
				}
				got, res := blockSolveBatch(t, solvers.KindBlockCG,
					recoveryOperator(t, f, shards), k, opt)
				if struck != 2 {
					t.Fatalf("strikes fired %d times, want 2", struck)
				}
				if res.Rollbacks == 0 {
					t.Fatalf("no rollbacks recorded: %+v", res.Result)
				}
				for j := 0; j < k; j++ {
					for i := range want[j] {
						if got[j][i] != want[j][i] {
							t.Fatalf("col %d row %d: recovered %v, fault-free %v",
								j, i, got[j][i], want[j][i])
						}
					}
					if res.Columns[j] != cleanRes.Columns[j] {
						t.Fatalf("col %d: recovered %+v, fault-free %+v",
							j, res.Columns[j], cleanRes.Columns[j])
					}
				}
				if res.Iterations != cleanRes.Iterations {
					t.Fatalf("recovered batch took %d iterations, fault-free %d",
						res.Iterations, cleanRes.Iterations)
				}

				// The same strikes against a lone solve and a width-1
				// batch, with and without a preconditioner: one column
				// recurrence under one recovery controller, so the
				// solution, the iteration count and the checkpoint and
				// rollback accounting agree.
				for _, kind := range []solvers.Kind{solvers.KindCG, solvers.KindPCG} {
					struck = 0
					gotOne, batch := blockSolveBatch(t, kind, recoveryOperator(t, f, shards), 1, opt)
					struck = 0
					a := recoveryOperator(t, f, shards)
					x := core.NewVector(a.Rows(), core.SECDED64)
					b := core.VectorFromSlice(blockRefColumns(a.Rows(), 1)[0], core.SECDED64)
					lone, err := solvers.Solve(kind, a, x, b, opt)
					if err != nil || struck != 2 {
						t.Fatalf("%v: lone solve: %v, %d strikes", kind, err, struck)
					}
					wantOne := make([]float64, a.Rows())
					if err := x.CopyTo(wantOne); err != nil {
						t.Fatal(err)
					}
					for i := range wantOne {
						if gotOne[0][i] != wantOne[i] {
							t.Fatalf("%v row %d: width-1 batch %v, lone solve %v", kind, i, gotOne[0][i], wantOne[i])
						}
					}
					if lone.Rollbacks == 0 || batch.Iterations != lone.Iterations ||
						batch.Checkpoints != lone.Checkpoints || batch.Rollbacks != lone.Rollbacks ||
						batch.RecomputedIterations != lone.RecomputedIterations {
						t.Fatalf("%v: width-1 batch %+v, lone solve %+v", kind, batch.Result, lone)
					}
				}
			})
		}
	}
}
