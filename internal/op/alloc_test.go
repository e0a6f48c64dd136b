// Solve-level allocation ceiling: the CRC32C block codecs checksum
// storage in place, so a whole protected solve allocates its temporaries
// and checkpoints and nothing per codeword. The configuration is the
// benchmark's pcg_shard workload, which once made 708,834 allocations per
// solve, every one a 32-byte message buffer escaping into hash/crc32.
package op_test

import (
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

func TestShardedCRCSolveAllocationCeiling(t *testing.T) {
	const ceiling = 2000
	plain := csr.Laplacian2D(70, 70)
	so, err := shard.New(plain, shard.Options{
		Shards: 2, Format: op.SELLCS,
		Config: op.Config{Scheme: core.CRC32C}, VectorScheme: core.CRC32C,
	})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := precond.For(precond.BlockJacobi, so, plain, precond.Options{Scheme: core.CRC32C, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A random right-hand side: all-ones is an eigenvector of this
	// operator and converges in one iteration.
	rng := rand.New(rand.NewSource(14))
	b := make([]float64, plain.Rows())
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	opt := solvers.Options{
		Tol: 1e-8, RelativeTol: true, Workers: 1, Preconditioner: pre,
		Recovery: solvers.Recovery{Policy: solvers.RecoveryRollback, Interval: 8, Scheme: core.CRC32C},
	}
	var res solvers.Result
	allocs := testing.AllocsPerRun(3, func() {
		bv := core.VectorFromSlice(b, core.CRC32C)
		xv := core.NewVector(len(b), core.CRC32C)
		res, err = solvers.PCG(solvers.MatrixOperator{M: so, Workers: 1}, xv, bv, opt)
	})
	if err != nil || !res.Converged || res.Iterations < 8 || res.Checkpoints == 0 {
		t.Fatalf("solve did not exercise the path: err %v, result %+v", err, res)
	}
	t.Logf("%d iterations, %d checkpoints, %.0f allocations per solve", res.Iterations, res.Checkpoints, allocs)
	if allocs > ceiling {
		t.Errorf("%.0f allocations per solve, ceiling %d", allocs, ceiling)
	}
}
