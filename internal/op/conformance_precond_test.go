// Preconditioned-solve conformance: a preconditioner changes the path
// to the solution, never the solution. Every (format x
// sharded/unsharded x preconditioner) combination must converge to the
// same answer within tolerance — the preconditioner kind, like the
// storage format and the shard count, is a deployment knob with no
// semantic content. The suite lives here, next to the operator
// conformance tests, because it pins the same contract one layer up.
package op_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// solveRef computes the reference solution with plain unprotected CG at
// a tolerance well under the comparison threshold.
func solveRef(t *testing.T) []float64 {
	t.Helper()
	plain := shardTestMatrix()
	m, err := op.New(op.CSR, plain, op.Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := core.NewVector(m.Rows(), core.None)
	b := core.VectorFromSlice(shardRefVector(m.Rows()), core.None)
	res, err := solvers.CG(solvers.MatrixOperator{M: m, Workers: 1}, x, b, solvers.Options{Tol: 1e-12})
	if err != nil || !res.Converged {
		t.Fatalf("reference solve: %v %+v", err, res)
	}
	out := make([]float64, m.Rows())
	if err := x.CopyTo(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrecondConformanceSolveParity sweeps every format, sharded and
// unsharded, under every preconditioner: PCG must converge and land on
// the reference solution within tolerance.
func TestPrecondConformanceSolveParity(t *testing.T) {
	want := solveRef(t)
	cfg := op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}
	for _, f := range op.Formats {
		for _, shards := range []int{0, 3} {
			for _, kind := range precond.ProtectingKinds {
				name := fmt.Sprintf("%v_shards%d_%v", f, shards, kind)
				t.Run(name, func(t *testing.T) {
					plain := shardTestMatrix()
					var m core.ProtectedMatrix
					var err error
					if shards > 1 {
						m, err = shard.New(plain, shard.Options{Shards: shards, Format: f, Config: cfg})
					} else {
						m, err = op.New(f, plain, cfg)
					}
					if err != nil {
						t.Fatal(err)
					}
					pre, err := precond.For(kind, m, plain, precond.Options{Scheme: core.SECDED64})
					if err != nil {
						t.Fatal(err)
					}
					x := core.NewVector(m.Rows(), core.SECDED64)
					b := core.VectorFromSlice(shardRefVector(m.Rows()), core.SECDED64)
					res, err := solvers.PCG(solvers.MatrixOperator{M: m, Workers: 2}, x, b,
						solvers.Options{Tol: 1e-10, Preconditioner: pre, Workers: 2})
					if err != nil {
						t.Fatal(err)
					}
					if !res.Converged {
						t.Fatalf("did not converge: %+v", res)
					}
					got := make([]float64, m.Rows())
					if err := x.CopyTo(got); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if d := got[i] - want[i]; d > 1e-6 || d < -1e-6 {
							t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestPrecondConformanceKindDispatch: the pcg solver kind reaches the
// configured preconditioner through the generic Solve dispatch, and the
// counters attached to it record the checks its applications made.
func TestPrecondConformanceKindDispatch(t *testing.T) {
	plain := shardTestMatrix()
	m, err := op.New(op.CSR, plain, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := precond.New(precond.SGS, plain, precond.Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	var c core.Counters
	pre.SetCounters(&c)
	x := core.NewVector(m.Rows(), core.None)
	b := core.VectorFromSlice(shardRefVector(m.Rows()), core.None)
	res, err := solvers.Solve(solvers.KindPCG, solvers.MatrixOperator{M: m, Workers: 1}, x, b,
		solvers.Options{Tol: 1e-10, Preconditioner: pre})
	if err != nil || !res.Converged {
		t.Fatalf("solve: %v %+v", err, res)
	}
	if c.Checks() == 0 {
		t.Fatal("preconditioner never applied through the pcg dispatch")
	}
}

// TestDefaultPCGIsProtectedJacobi: PCG with no preconditioner configured
// is PCG with precond's Jacobi built from the operator's verified
// diagonal, in the solve's vector scheme, worker count and counters —
// bit for bit in x, Alphas, Betas, History, iterations, per-column
// results and vector and matrix check counts. Single solves and width-3
// batches run over unsharded CSR (SECDED64) and 2-shard SELL-C-sigma
// (CRC32C) at one and two workers; at two, the Jacobi's workers read its
// one inverse diagonal in parallel (a CI step runs this under -race).
func TestDefaultPCGIsProtectedJacobi(t *testing.T) {
	// Two workers must mean two ranges, whatever the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	grid := csr.Laplacian2D(12, 12)
	n := grid.Rows()
	rng := rand.New(rand.NewSource(35))
	rhs := make([][]float64, 3)
	for j := range rhs {
		rhs[j] = make([]float64, n)
		for i := range rhs[j] {
			rhs[j][i] = 2*rng.Float64() - 1
		}
	}
	type run struct {
		hash           uint64
		columns        []solvers.ColumnResult
		vector, matrix uint64
	}
	for _, o := range pinnedOperators(grid) {
		for _, workers := range []int{1, 2} {
			for _, k := range []int{1, 3} {
				// solve runs PCG once, with precond's Jacobi built here
				// when explicit is set.
				solve := func(explicit bool) run {
					t.Helper()
					m, err := o.build()
					if err != nil {
						t.Fatal(err)
					}
					var vec, mat core.Counters
					m.SetCounters(&mat)
					a := solvers.MatrixOperator{M: m, Workers: workers}
					x := core.NewMultiVector(n, k, o.scheme)
					b := core.NewMultiVector(n, k, o.scheme)
					xs := make([]*core.Vector, k)
					for j := range xs {
						b.Col(j).CopyFrom(rhs[j])
						xs[j] = x.Col(j)
						xs[j].SetCounters(&vec)
						b.Col(j).SetCounters(&vec)
					}
					opt := solvers.Options{
						Tol: 1e-9, RelativeTol: true, MaxIter: 300, Workers: workers, RecordHistory: true,
						Recovery: solvers.Recovery{Policy: solvers.RecoveryRollback, Interval: 4, Scheme: o.scheme},
					}
					if explicit {
						d := make([]float64, n)
						if err := a.Diagonal(d); err != nil {
							t.Fatal(err)
						}
						pre, err := precond.NewJacobi(d, precond.Options{Scheme: o.scheme, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						pre.SetCounters(&vec)
						opt.Preconditioner = pre
					}
					var res solvers.Result
					var cols []solvers.ColumnResult
					if k == 1 {
						res, err = solvers.Solve(solvers.KindPCG, a, xs[0], b.Col(0), opt)
					} else {
						var br solvers.BatchResult
						br, err = solvers.SolveBatch(solvers.KindPCG, a, x, b, opt)
						res, cols = br.Result, br.Columns
					}
					if err != nil || !res.Converged {
						t.Fatalf("%s/w%d/k%d explicit=%v: %v, %+v", o.name, workers, k, explicit, err, res)
					}
					return run{trajectoryHash(xs, res), cols, vec.Checks(), mat.Checks()}
				}
				def, exp := solve(false), solve(true)
				if !reflect.DeepEqual(def, exp) {
					t.Errorf("%s/w%d/k%d: default PCG %+v, explicit protected Jacobi %+v", o.name, workers, k, def, exp)
				}
			}
		}
	}
}
