// Microbenchmarks of the ECC primitives and protected kernels, the
// ablations the paper motivates (buffered writes vs read-modify-write,
// worker scaling) and the solver entry points, sized for `go test
// -bench`; ns/op is compared across sub-benchmarks, one scheme per
// sub-benchmark. The paper's figures (4-9, full protection, convergence,
// CRC backends) are `cmd/abftbench`; the end-to-end and per-layer
// numbers the repo is judged by are `benchmark/` (BENCHMARK.json).
package abft_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"abft/internal/coo"
	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/mm"
	"abft/internal/op"
	"abft/internal/service"
	"abft/internal/shard"
	"abft/internal/solvers"
	"abft/internal/tealeaf"
)

// benchConfig is the reduced TeaLeaf workload used by the figure benches.
func benchConfig() tealeaf.Config {
	cfg := tealeaf.DefaultConfig()
	cfg.NX, cfg.NY = 64, 64
	cfg.EndStep = 1
	cfg.Eps = 1e-7
	cfg.RelativeTol = true
	return cfg
}

func runWorkload(b *testing.B, cfg tealeaf.Config) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := tealeaf.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the primitives.

// BenchmarkSECDEDCheck measures the clean-codeword check for every
// embedded layout used by the schemes.
func BenchmarkSECDEDCheck(b *testing.B) {
	layouts := []struct {
		name     string
		width    int
		checkPos []int
	}{
		{"vec64", 64, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"elem96", 96, []int{88, 89, 90, 91, 92, 93, 94, 95}},
		{"vec128", 128, []int{0, 1, 2, 3, 4, 64, 65, 66, 67}},
		{"elem192", 192, []int{88, 89, 90, 91, 92, 184, 185, 186, 187}},
	}
	for _, l := range layouts {
		b.Run(l.name, func(b *testing.B) {
			c := ecc.MustSECDED(l.width, l.checkPos)
			var w ecc.Word4
			w[0] = 0x0123_4567_89AB_CDEF
			w[1] = 0x0000_0000_00FE_DCBA
			c.Encode(&w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cw := w
				if res, _ := c.Check(&cw); res != ecc.OK {
					b.Fatal("clean codeword failed")
				}
			}
		})
	}
}

// BenchmarkSECDEDEncode measures codeword encoding.
func BenchmarkSECDEDEncode(b *testing.B) {
	c := ecc.MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	var w ecc.Word4
	w[0] = 0xDEAD_BEEF_CAFE_0000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := w
		c.Encode(&cw)
	}
}

// BenchmarkCRC32CBackends compares the hardware-instruction path with the
// software slicing-by-16 path on codeword-sized and streaming buffers
// (the paper's section IV comparison).
func BenchmarkCRC32CBackends(b *testing.B) {
	for _, size := range []int{32, 60, 4096} {
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i)
		}
		for _, backend := range []ecc.Backend{ecc.Hardware, ecc.Software} {
			b.Run(fmt.Sprintf("%s-%dB", backend, size), func(b *testing.B) {
				b.SetBytes(int64(size))
				for i := 0; i < b.N; i++ {
					_ = ecc.Checksum(buf, backend)
				}
			})
		}
	}
}

// BenchmarkSpMV measures the protected sparse matrix-vector product per
// scheme on a 128x128 five-point operator, matrix and vectors protected
// with the same scheme, and the matrix side alone.
func BenchmarkSpMV(b *testing.B) {
	plain := csr.Laplacian2D(128, 128)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, plain.Cols32())
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			m, err := core.NewMatrix(plain, core.MatrixOptions{ElemScheme: s, RowPtrScheme: s})
			if err != nil {
				b.Fatal(err)
			}
			x := core.VectorFromSlice(xs, s)
			dst := core.NewVector(plain.Rows(), s)
			b.SetBytes(int64(plain.NNZ() * 12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.SpMV(dst, m, x, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// A protected matrix with unprotected vectors (a resident service
	// operator's shape), with SECDED64 elements and unprotected or
	// SECDED64 row pointers: the matrix side of the product alone.
	for _, rs := range []core.Scheme{core.None, core.SECDED64} {
		b.Run("matrix-only/rowptr="+rs.String(), func(b *testing.B) {
			m, err := core.NewMatrix(plain, core.MatrixOptions{ElemScheme: core.SECDED64, RowPtrScheme: rs})
			if err != nil {
				b.Fatal(err)
			}
			x := core.VectorFromSlice(xs, core.None)
			dst := core.NewVector(plain.Rows(), core.None)
			b.SetBytes(int64(plain.NNZ() * 12))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.SpMV(dst, m, x, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The same product where streamed data competes with the codec's
	// tables for cache: a 1024x1024 operator, SECDED64 everywhere, about
	// 85 MB of matrix and vectors against a 4 MB L2. Too slow to build for
	// a one-iteration smoke, so not under -short.
	b.Run("out-of-l2/secded64", func(b *testing.B) {
		if testing.Short() {
			b.Skip("85 MB operator")
		}
		big := csr.Laplacian2D(1024, 1024)
		m, err := core.NewMatrix(big, core.MatrixOptions{ElemScheme: core.SECDED64, RowPtrScheme: core.SECDED64})
		if err != nil {
			b.Fatal(err)
		}
		bx := make([]float64, big.Cols32())
		for i := range bx {
			bx[i] = rng.NormFloat64()
		}
		x := core.VectorFromSlice(bx, core.SECDED64)
		dst := core.NewVector(big.Rows(), core.SECDED64)
		b.SetBytes(int64(big.NNZ() * 12))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := core.SpMV(dst, m, x, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(big.Rows()), "ns/row")
	})
}

// BenchmarkDot measures the protected inner product per scheme.
func BenchmarkDot(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			x := core.VectorFromSlice(data, s)
			b.SetBytes(int64(len(data) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Dot(x, x, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWaxpby measures the protected triad update per scheme.
func BenchmarkWaxpby(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	for _, s := range core.Schemes {
		b.Run(s.String(), func(b *testing.B) {
			x := core.VectorFromSlice(data, s)
			y := core.VectorFromSlice(data, s)
			b.SetBytes(int64(len(data) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := core.Waxpby(y, 1.0001, x, 0.5, y, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (section VI-C).

// BenchmarkAblationRMW compares the buffered group-write kernel against
// per-element read-modify-write: the cost the paper's write buffering
// eliminates (two integrity computations per element write).
func BenchmarkAblationRMW(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 1<<12)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	x := core.VectorFromSlice(data, core.SECDED64)
	b.Run("buffered", func(b *testing.B) {
		y := core.VectorFromSlice(data, core.SECDED64)
		b.SetBytes(int64(len(data) * 8))
		for i := 0; i < b.N; i++ {
			if err := core.Axpy(y, 1.0001, x, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rmw", func(b *testing.B) {
		y := core.VectorFromSlice(data, core.SECDED64)
		b.SetBytes(int64(len(data) * 8))
		for i := 0; i < b.N; i++ {
			if err := core.AxpyRMW(y, 1.0001, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCOOvsCSR compares the protected SpMV of the two storage
// formats covered by the paper's lineage at the same protection level
// (COO scatters through a dense accumulator; CSR streams output
// codewords directly).
func BenchmarkCOOvsCSR(b *testing.B) {
	plain := csr.Laplacian2D(128, 128)
	xs := make([]float64, plain.Cols32())
	for i := range xs {
		xs[i] = float64(i%17) - 8
	}
	x := core.VectorFromSlice(xs, core.None)
	dst := core.NewVector(plain.Rows(), core.None)
	b.Run("csr-secded64", func(b *testing.B) {
		m, err := core.NewMatrix(plain, core.MatrixOptions{
			ElemScheme: core.SECDED64, RowPtrScheme: core.SECDED64,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(plain.NNZ() * 12))
		for i := 0; i < b.N; i++ {
			if err := core.SpMV(dst, m, x, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("coo-secded64", func(b *testing.B) {
		m, err := coo.NewMatrix(plain, coo.Options{Scheme: core.SECDED64})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(plain.NNZ() * 16))
		for i := 0; i < b.N; i++ {
			if err := m.SpMV(dst, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationWorkers measures parallel kernel scaling (the
// goroutine analogue of the paper's OpenMP platform axis).
func BenchmarkAblationWorkers(b *testing.B) {
	cfgBase := benchConfig()
	cfgBase.ElemScheme = core.SECDED64
	cfgBase.RowPtrScheme = core.SECDED64
	cfgBase.VectorScheme = core.SECDED64
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			cfg := cfgBase
			cfg.Workers = w
			runWorkload(b, cfg)
		})
	}
}

// shardedOperator builds the sharded benchmark operator: the 64x64
// five-point system row-partitioned with full SECDED64 protection.
func shardedOperator(b *testing.B, shards int, format op.Format) *shard.Operator {
	b.Helper()
	o, err := shard.New(csr.Laplacian2D(64, 64), shard.Options{
		Shards: shards,
		Format: format,
		Config: op.Config{
			Scheme:       core.SECDED64,
			RowPtrScheme: core.SECDED64,
		},
		VectorScheme: core.SECDED64,
	})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkShardedSpMV measures the distributed matrix-vector product —
// scatter, protected halo exchange, per-shard products written into the
// destination — across shard counts and storage formats.
func BenchmarkShardedSpMV(b *testing.B) {
	for _, format := range op.Formats {
		for _, shards := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%v/shards-%d", format, shards), func(b *testing.B) {
				o := shardedOperator(b, shards, format)
				xs := make([]float64, o.Cols())
				for i := range xs {
					xs[i] = float64(i%17) - 8
				}
				x := core.VectorFromSlice(xs, core.SECDED64)
				dst := core.NewVector(o.Rows(), core.SECDED64)
				b.SetBytes(int64(o.NNZ() * 12))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := o.Apply(dst, x, shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkShardedCG measures the full distributed solve (protected
// halo exchange plus tree-reduced inner products every iteration)
// against the unsharded operator, across shard counts.
func BenchmarkShardedCG(b *testing.B) {
	bs := make([]float64, 64*64)
	for i := range bs {
		bs[i] = float64(i%13) - 6
	}
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := shardedOperator(b, shards, op.CSR)
				x := core.NewVector(o.Rows(), core.SECDED64)
				rhs := core.VectorFromSlice(bs, core.SECDED64)
				res, err := solvers.CG(solvers.MatrixOperator{M: o, Workers: shards}, x, rhs,
					solvers.Options{Tol: 1e-8, MaxIter: 10000})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("sharded CG did not converge")
				}
			}
		})
	}
}

// BenchmarkSolvers compares the four solver algorithms on the protected
// workload (TeaLeaf's solver set).
func BenchmarkSolvers(b *testing.B) {
	for _, kind := range []solvers.Kind{solvers.KindCG, solvers.KindChebyshev, solvers.KindPPCG} {
		b.Run(kind.String(), func(b *testing.B) {
			cfg := benchConfig()
			cfg.Solver = kind
			cfg.VectorScheme = core.SECDED64
			cfg.ElemScheme = core.SECDED64
			cfg.RowPtrScheme = core.SECDED64
			cfg.MaxIters = 100000
			runWorkload(b, cfg)
		})
	}
}

// BenchmarkSpMM measures the batched verified product per format and
// batch width on a 128x128 five-point SECDED64 operator. ns/op covers
// the whole batch; divide by the width for the per-RHS cost
// (matrix-side checks are paid once per pass, so per-RHS cost falls as
// k grows; the benchmark's `core.spmm_ns_row_rhs` is the width-8 row).
func BenchmarkSpMM(b *testing.B) {
	plain := csr.Laplacian2D(128, 128)
	rng := rand.New(rand.NewSource(3))
	for _, f := range op.Formats {
		for _, k := range []int{1, 4, 8, 16} {
			b.Run(fmt.Sprintf("%v/k-%d", f, k), func(b *testing.B) {
				m, err := op.New(f, plain, op.Config{Scheme: core.SECDED64})
				if err != nil {
					b.Fatal(err)
				}
				ba, ok := m.(core.BatchApplier)
				if !ok {
					b.Fatalf("%T does not implement core.BatchApplier", m)
				}
				cols := make([]*core.Vector, k)
				for j := range cols {
					xs := make([]float64, plain.Cols32())
					for i := range xs {
						xs[i] = rng.NormFloat64()
					}
					cols[j] = core.VectorFromSlice(xs, core.None)
				}
				x, err := core.WrapMultiVector(cols...)
				if err != nil {
					b.Fatal(err)
				}
				dst := core.NewMultiVector(plain.Rows(), k, core.None)
				b.SetBytes(int64(plain.NNZ() * 12))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := ba.ApplyBatch(dst, x, 1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFGMRES measures the flexible solver on a nonsymmetric
// convection-diffusion system at full SECDED64 protection, under both
// reliability modes: full verifies every read including the inner
// Richardson sweeps; selective runs the inner solve through the
// no-decode fast path and verifies only the outer Arnoldi recurrence.
// The ns/op gap is the verified-read cost selective reliability
// removes; fault-free both modes produce identical iterates.
func BenchmarkFGMRES(b *testing.B) {
	plain := csr.ConvectionDiffusion2D(48, 48, 1.5, 0.5)
	bs := make([]float64, plain.Rows())
	for i := range bs {
		bs[i] = float64((i*13)%29) - 14
	}
	for _, rel := range solvers.Reliabilities {
		b.Run(rel.String(), func(b *testing.B) {
			m, err := op.New(op.CSR, plain, op.Config{
				Scheme: core.SECDED64, RowPtrScheme: core.SECDED64,
			})
			if err != nil {
				b.Fatal(err)
			}
			a := solvers.MatrixOperator{M: m, Workers: 1}
			for i := 0; i < b.N; i++ {
				x := core.NewVector(plain.Rows(), core.SECDED64)
				rhs := core.VectorFromSlice(bs, core.SECDED64)
				res, err := solvers.FGMRES(a, x, rhs,
					solvers.Options{Tol: 1e-8, Reliability: rel})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("FGMRES did not converge")
				}
			}
		})
	}
}

// BenchmarkBlockCG measures the batched solver against k sequential
// single-RHS CG solves of the same protected system: identical
// arithmetic (block-CG runs k lockstep recurrences), one batched
// verified pass per iteration instead of k.
func BenchmarkBlockCG(b *testing.B) {
	plain := csr.Laplacian2D(48, 48)
	cols := func(k int) []*core.Vector {
		vs := make([]*core.Vector, k)
		for j := range vs {
			bs := make([]float64, plain.Rows())
			for i := range bs {
				bs[i] = float64((i*13+j*7)%29) - 14
			}
			vs[j] = core.VectorFromSlice(bs, core.SECDED64)
		}
		return vs
	}
	opts := solvers.Options{Tol: 1e-8, MaxIter: 10000}
	for _, k := range []int{1, 4, 8} {
		m, err := op.New(op.CSR, plain, op.Config{Scheme: core.SECDED64})
		if err != nil {
			b.Fatal(err)
		}
		a := solvers.MatrixOperator{M: m, Workers: 1}
		b.Run(fmt.Sprintf("block/k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				xv := make([]*core.Vector, k)
				for j := range xv {
					xv[j] = core.NewVector(plain.Rows(), core.SECDED64)
				}
				x, err := core.WrapMultiVector(xv...)
				if err != nil {
					b.Fatal(err)
				}
				rhs, err := core.WrapMultiVector(cols(k)...)
				if err != nil {
					b.Fatal(err)
				}
				res, err := solvers.BlockCG(a, x, rhs, opts)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Converged {
					b.Fatal("block CG did not converge")
				}
			}
		})
		b.Run(fmt.Sprintf("sequential/k-%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, rhs := range cols(k) {
					x := core.NewVector(plain.Rows(), core.SECDED64)
					res, err := solvers.CG(a, x, rhs, opts)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Converged {
						b.Fatal("CG did not converge")
					}
				}
			}
		})
	}
}

// BenchmarkMatrixMarketAdmission times the cache-miss path of an inline
// MatrixMarket operator, on n x n Laplacian documents as mm.Write
// writes them: mm.ReadString alone, and a POST /v1/solve the service
// admits cold — body read, request decode, digest, unquote, parse, CSR
// build, profile — and then refuses for its one-element b, so nothing
// is encoded or solved and the next request is cold again. Reported in
// ns per document line; the 512x512 document (1.3M lines, 20 MB) is not
// under -short.
func BenchmarkMatrixMarketAdmission(b *testing.B) {
	for _, nx := range []int{64, 512} {
		name := fmt.Sprintf("%dx%d", nx, nx)
		if nx > 64 && testing.Short() {
			b.Run(name, func(b *testing.B) { b.Skip("20 MB document") })
			continue
		}
		var doc strings.Builder
		if err := mm.Write(&doc, csr.Laplacian2D(nx, nx)); err != nil {
			b.Fatal(err)
		}
		text := doc.String()
		body, err := json.Marshal(service.SolveRequest{Matrix: service.MatrixSpec{MatrixMarket: text}, B: []float64{0}})
		if err != nil {
			b.Fatal(err)
		}
		perLine := func(b *testing.B) {
			lines := strings.Count(text, "\n")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(lines), "ns/line")
		}
		b.Run(name+"/mm.ReadString", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mm.ReadString(text); err != nil {
					b.Fatal(err)
				}
			}
			perLine(b)
		})
		b.Run(name+"/admission", func(b *testing.B) {
			svc := service.New(service.Config{Workers: 1})
			defer svc.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
				if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "rhs length 1 does not match") {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			perLine(b)
		})
	}
}
