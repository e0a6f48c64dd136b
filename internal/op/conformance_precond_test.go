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
	"testing"

	"abft/internal/core"
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
