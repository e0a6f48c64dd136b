package op_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// trajectoryPins are FNV-64a hashes of every solver's trajectory: the
// stored words of x, then Alphas, Betas and History, then the iteration
// count. A kernel refactor that claims to change no iterate must leave
// every hash where it is; a change that moves one must say why. The pcg
// and jacobi pins moved when their Jacobi became precond's protected
// inverse diagonal (DESIGN.md section 35), the fgmres pins when its
// inner Richardson's did (section 36), and the sharded fgmres pins again
// when a band's interior became the caller's x itself, no longer
// truncated to the landing vectors' CRC32C (section 41).
var trajectoryPins = map[string]uint64{
	"cg/csr_secded64/w1":               0x4984f37b63493b7f, // 29 iterations
	"pcg/csr_secded64/w1":              0xbd1cb66e3f06fc4b, // 28
	"jacobi/csr_secded64/w1":           0x4c353a926f2c2591, // 77
	"chebyshev/csr_secded64/w1":        0x09fd2375908cdbc5, // 32
	"ppcg/csr_secded64/w1":             0x48b8f2305bf32966, // 8
	"fgmres_full/csr_secded64/w1":      0x1cb0a296ebee3362, // 3 cycles
	"fgmres_selective/csr_secded64/w1": 0x1cb0a296ebee3362, // 3
	"blockcg3/csr_secded64/w1":         0x6ae894126e2b8486, // 29
	"cg/csr_secded64/w2":               0x6b854b1e8a739996, // 29
	"pcg/csr_secded64/w2":              0x8884c832aa18035f, // 28
	"jacobi/csr_secded64/w2":           0x9b137d1c1ca6d456, // 77
	"chebyshev/csr_secded64/w2":        0x07948aeea91a18b1, // 32
	"ppcg/csr_secded64/w2":             0x746b66e8e962e3b6, // 8
	"fgmres_full/csr_secded64/w2":      0x88d32387ff7a0386, // 3
	"fgmres_selective/csr_secded64/w2": 0x88d32387ff7a0386, // 3
	"blockcg3/csr_secded64/w2":         0xf98c362e25235468, // 29
	// The band decomposition fixes the sharded reductions, so one and
	// two workers agree.
	"cg/sell2_crc32c/w1":               0x7c81478931128abc, // 29
	"pcg/sell2_crc32c/w1":              0x8e85858c9dccd436, // 28
	"jacobi/sell2_crc32c/w1":           0xf9e36dd0a7c4f3b5, // 77
	"chebyshev/sell2_crc32c/w1":        0x14b4d8eaea38aaf9, // 32
	"ppcg/sell2_crc32c/w1":             0x4abc910f6020a278, // 8
	"fgmres_full/sell2_crc32c/w1":      0xebaea050e39fea99, // 3
	"fgmres_selective/sell2_crc32c/w1": 0xebaea050e39fea99, // 3
	"blockcg3/sell2_crc32c/w1":         0x4334b1ee666eb05f, // 29
	"cg/sell2_crc32c/w2":               0x7c81478931128abc, // 29
	"pcg/sell2_crc32c/w2":              0x8e85858c9dccd436, // 28
	"jacobi/sell2_crc32c/w2":           0xf9e36dd0a7c4f3b5, // 77
	"chebyshev/sell2_crc32c/w2":        0x14b4d8eaea38aaf9, // 32
	"ppcg/sell2_crc32c/w2":             0x4abc910f6020a278, // 8
	"fgmres_full/sell2_crc32c/w2":      0xebaea050e39fea99, // 3
	"fgmres_selective/sell2_crc32c/w2": 0xebaea050e39fea99, // 3
	"blockcg3/sell2_crc32c/w2":         0x4334b1ee666eb05f, // 29
}

// TestSolverTrajectoriesPinned runs every solver over an unsharded CSR
// operator (SECDED64 on elements, row pointers and vectors) and a
// two-shard SELL-C-sigma operator (CRC32C throughout), at one and two
// workers, with rollback checkpoints every four iterations, and compares
// each trajectory's hash with its pin. It is cheap enough to run under
// -short and the race detector.
func TestSolverTrajectoriesPinned(t *testing.T) {
	// Two workers must mean two ranges, whatever the host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	grid := csr.Laplacian2D(12, 12)
	n := grid.Rows()
	rng := rand.New(rand.NewSource(31))
	rhs := make([][]float64, 3)
	for j := range rhs {
		rhs[j] = make([]float64, n)
		for i := range rhs[j] {
			rhs[j][i] = 2*rng.Float64() - 1
		}
	}
	operators := pinnedOperators(grid)
	type single func(solvers.Operator, *core.Vector, *core.Vector, solvers.Options) (solvers.Result, error)
	fgmres := func(r solvers.Reliability) single {
		return func(a solvers.Operator, x, b *core.Vector, opt solvers.Options) (solvers.Result, error) {
			opt.Reliability = r
			return solvers.FGMRES(a, x, b, opt)
		}
	}
	singles := []struct {
		name  string
		solve single
	}{
		{"cg", solvers.CG},
		{"pcg", solvers.PCG},
		{"jacobi", solvers.Jacobi},
		{"chebyshev", solvers.Chebyshev},
		{"ppcg", solvers.PPCG},
		{"fgmres_full", fgmres(solvers.ReliabilityFull)},
		{"fgmres_selective", fgmres(solvers.ReliabilitySelective)},
	}
	for _, o := range operators {
		for _, workers := range []int{1, 2} {
			m, err := o.build()
			if err != nil {
				t.Fatal(err)
			}
			a := solvers.MatrixOperator{M: m, Workers: workers}
			opt := solvers.Options{
				Tol: 1e-9, RelativeTol: true, MaxIter: 300, Workers: workers,
				EigenIters: 20, InnerSteps: 4, Restart: 4, RecordHistory: true,
				Recovery: solvers.Recovery{Policy: solvers.RecoveryRollback, Interval: 4, Scheme: o.scheme},
			}
			check := func(solver string, xs []*core.Vector, res solvers.Result, err error) {
				t.Helper()
				key := fmt.Sprintf("%s/%s/w%d", solver, o.name, workers)
				if err != nil {
					t.Errorf("%s: %v", key, err)
					return
				}
				if got, want := trajectoryHash(xs, res), trajectoryPins[key]; got != want {
					t.Errorf("%s: trajectory hash %#016x, want %#016x (%d iterations)", key, got, want, res.Iterations)
				}
			}
			for _, s := range singles {
				x := core.NewVector(n, o.scheme)
				b := core.VectorFromSlice(rhs[0], o.scheme)
				res, err := s.solve(a, x, b, opt)
				check(s.name, []*core.Vector{x}, res, err)
			}
			x := core.NewMultiVector(n, len(rhs), o.scheme)
			b := core.NewMultiVector(n, len(rhs), o.scheme)
			xs := make([]*core.Vector, len(rhs))
			for j := range rhs {
				b.Col(j).CopyFrom(rhs[j])
				xs[j] = x.Col(j)
			}
			br, err := solvers.BlockCG(a, x, b, opt)
			check("blockcg3", xs, br.Result, err)
		}
	}
}

// pinnedOperator builds one of the trajectory pins' operators afresh;
// scheme protects its vectors.
type pinnedOperator struct {
	name   string
	scheme core.Scheme
	build  func() (core.ProtectedMatrix, error)
}

// pinnedOperators are the pins' two operators over grid: unsharded CSR
// with SECDED64 on elements and row pointers, and two SELL-C-sigma
// shards under CRC32C throughout.
func pinnedOperators(grid *csr.Matrix) []pinnedOperator {
	return []pinnedOperator{
		{"csr_secded64", core.SECDED64, func() (core.ProtectedMatrix, error) {
			return op.New(op.CSR, grid, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
		}},
		{"sell2_crc32c", core.CRC32C, func() (core.ProtectedMatrix, error) {
			return shard.New(grid, shard.Options{
				Shards: 2, Format: op.SELLCS,
				Config: op.Config{Scheme: core.CRC32C}, VectorScheme: core.CRC32C,
			})
		}},
	}
}

// trajectoryHash hashes the stored words of xs, then res's Alphas,
// Betas and History bit for bit, then its iteration count.
func trajectoryHash(xs []*core.Vector, res solvers.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(w uint64) {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	for _, x := range xs {
		for _, w := range x.Raw() {
			word(w)
		}
	}
	for _, fs := range [][]float64{res.Alphas, res.Betas, res.History} {
		word(uint64(len(fs)))
		for _, f := range fs {
			word(math.Float64bits(f))
		}
	}
	word(uint64(res.Iterations))
	return h.Sum64()
}
