package main

import (
	"math/rand"
	"strings"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/mm"
	"abft/internal/op"
	"abft/internal/par"
	"abft/internal/solvers"
)

// sink keeps the results of timed kernel calls alive.
var sink uint64

// kernel is one direct measurement of a layer's public function: one
// sample is as many calls of fn as fit in sampleTime, and reports the
// time of a call divided by per.
type kernel struct {
	name string
	per  float64
	fn   func() error
}

// sampleTime is the least a kernel sample lasts. Some kernels take 30
// microseconds a call; timed singly they repeat to 40%, not 2%.
const sampleTime = time.Millisecond

// bigNX is the grid side of the one kernel measured out of cache: the
// 256x256 operator's matrix and vectors take about 6 MB, three times
// the reference box's L2. A whole solve at that size is too long to
// time on the box (README.md); one product is not.
const bigNX = 256

// kernelLayers measures the layers no workload span can isolate, by
// calling each one's public functions directly on operands of the size
// and scheme of the workload it serves (README.md names the workload
// each number should move). Every kernel is sampled batches times.
func kernelLayers(tr *tracer, seed int64, batches int) error {
	rng := rand.New(rand.NewSource(seed))

	// ecc operands: SECDED in the 64-bit vector layout, and CRC32C over
	// 64-byte messages.
	const words = 4096
	codec := ecc.MustSECDED(64, []int{0, 1, 2, 3, 4, 5, 6, 7})
	ws := make([]ecc.Word4, words)
	for i := range ws {
		ws[i][0] = rng.Uint64()
	}
	msg := make([]byte, 64*words)
	rng.Read(msg)

	// core operands on cg_csr's grid, and a product at bigNX.
	plain := csr.Laplacian2D(cgCSR.nx, cgCSR.nx)
	n := plain.Rows()
	data := make([]float64, bigNX*bigNX)
	rhs(rng, data)
	vec := func() *core.Vector { return core.VectorFromSlice(data[:n], core.SECDED64) }
	x, p, r, q := vec(), vec(), vec(), vec()
	fused := core.FusedOptions{Workers: 1}
	protect := func(f op.Format, nx int, cfg op.Config) (core.ProtectedMatrix, error) {
		return op.New(f, csr.Laplacian2D(nx, nx), cfg)
	}
	big, err := protect(op.CSR, bigNX, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
	if err != nil {
		return err
	}
	bigX := core.VectorFromSlice(data, core.SECDED64)
	bigY := core.NewVector(len(data), core.SECDED64)

	// SpMM at svc_burst's operator and width.
	grid, err := protect(op.CSR, burstNX, op.Config{Scheme: core.SECDED64})
	if err != nil {
		return err
	}
	gn := grid.Rows()
	mx := core.NewMultiVector(gn, burstSingles, core.SECDED64)
	my := core.NewMultiVector(gn, burstSingles, core.SECDED64)
	for j := 0; j < burstSingles; j++ {
		mx.Col(j).Fill(float64(j + 1))
	}

	// pcg_shard's format and scheme without the shards around it.
	band, err := protect(op.SELLCS, pcgShard.nx, op.Config{Scheme: core.CRC32C})
	if err != nil {
		return err
	}
	sx := core.VectorFromSlice(data[:band.Rows()], core.CRC32C)
	sy := core.NewVector(band.Rows(), core.CRC32C)

	// svc_warm's request document.
	var doc strings.Builder
	if err := mm.Write(&doc, csr.Laplacian2D(warmNX, warmNX)); err != nil {
		return err
	}

	const dispatches = 1000
	two := [][2]int{{0, 1}, {1, 2}}
	kernels := []kernel{
		{"ecc.secded64_encode_ns", words, func() error {
			for i := range ws {
				codec.Encode(&ws[i])
			}
			return nil
		}},
		{"ecc.secded64_check_ns", words, func() error {
			for i := range ws {
				res, bit := codec.Check(&ws[i])
				sink += uint64(res) + uint64(bit)
			}
			return nil
		}},
		{"ecc.crc32c_64B_ns", words, func() error {
			for i := 0; i < len(msg); i += 64 {
				sink += uint64(ecc.Checksum(msg[i:i+64], ecc.Auto))
			}
			return nil
		}},
		{"core.tail_ns_row", float64(n), func() error {
			if _, err := core.FusedAxpyDot(x, 1e-3, p, r, q, fused); err != nil {
				return err
			}
			_, err := core.FusedUpdateNorm(q, 1, p, -1, x, fused)
			return err
		}},
		{"core.dot_ns_row", float64(n), func() error {
			_, err := core.Dot(p, r, 1)
			return err
		}},
		{"core.vec_encode_ns_row", float64(n), func() error {
			sink += uint64(vec().Len())
			return nil
		}},
		{"core.spmv_256_ns_row", bigNX * bigNX, func() error { return big.Apply(bigY, bigX, 1) }},
		{"core.spmm_ns_row_rhs", float64(gn * burstSingles), func() error {
			return grid.(core.BatchApplier).ApplyBatch(my, mx, 1)
		}},
		{"sell.apply_ns_row", float64(band.Rows()), func() error { return band.Apply(sy, sx, 1) }},
		// One empty two-range dispatch through the resident pool.
		{"par.dispatch_ns", dispatches, func() error {
			for i := 0; i < dispatches; i++ {
				if err := par.Run(two, func(lo, hi int) error { return nil }); err != nil {
					return err
				}
			}
			return nil
		}},
		{"mm.parse_ms", float64(time.Millisecond), func() error {
			_, err := mm.ReadString(doc.String())
			return err
		}},
	}
	for _, k := range kernels {
		for i := 0; i < batches; i++ {
			calls, elapsed := 0, time.Duration(0)
			for start := time.Now(); elapsed < sampleTime; elapsed = time.Since(start) {
				if err := k.fn(); err != nil {
					return err
				}
				calls++
			}
			tr.add(k.name, float64(elapsed)/float64(calls)/k.per)
		}
	}

	// The framework tax: the in-repo unprotected solve of cg_csr's system
	// over the frozen reference solving the same system.
	raw, err := protect(op.CSR, cgCSR.nx, op.Config{})
	if err != nil {
		return err
	}
	xRef, scratch := make([]float64, n), newRefScratch(n)
	var rawMS, refMS []float64
	for i := 0; i < batches; i++ {
		start := time.Now()
		refCG(plain, data[:n], xRef, scratch, libTol, n)
		refMS = append(refMS, millis(time.Since(start)))
		start = time.Now()
		bv, xv := core.VectorFromSlice(data[:n], core.None), core.NewVector(n, core.None)
		_, err := solvers.CG(solvers.MatrixOperator{M: raw, Workers: 1}, xv, bv,
			solvers.Options{Tol: libTol, RelativeTol: true, Workers: 1})
		if err == nil {
			err = xv.CopyTo(xRef)
		}
		if err != nil {
			return err
		}
		rawMS = append(rawMS, millis(time.Since(start)))
	}
	tr.add("core.raw_x", fastest(rawMS)/fastest(refMS))
	return nil
}
