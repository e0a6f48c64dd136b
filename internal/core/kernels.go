package core

import (
	"fmt"
	"math"

	"abft/internal/par"
)

// SpMVOptions tunes the protected sparse matrix-vector product.
type SpMVOptions struct {
	// Workers is the number of goroutines; values below 2 run serially.
	Workers int
	// DisableCache turns off the stencil-aware decoded-block cache, the
	// ablation of paper section VI-C: every source-vector access then
	// re-checks its whole codeword.
	DisableCache bool
}

// SpMV computes dst = m * x with integrity checking as configured on the
// matrix and vectors; a convenience wrapper around SpMVOpts.
func SpMV(dst *Vector, m *Matrix, x *Vector, workers int) error {
	return SpMVOpts(dst, m, x, SpMVOptions{Workers: workers})
}

// SpMVOpts computes dst = m * x. Matrix codewords are verified on checking
// sweeps (see Matrix.SetCheckInterval) and range-checked otherwise; source
// vector codewords are verified on every access, amortised by a small
// stencil-aware cache of decoded blocks; results are committed one output
// codeword block at a time so no read-modify-write is ever needed.
//
// In parallel runs, workers never write to codewords they do not own:
// corrections discovered in shared structures are used for the computation
// but left in storage for the next serial check or scrub to repair.
func SpMVOpts(dst *Vector, m *Matrix, x *Vector, opt SpMVOptions) error {
	return m.spmv(dst, x, opt, m.mode.Verifies())
}

// ApplyUnverified multiplies dst = m x through the no-decode fast path
// regardless of the stored read mode: row pointers, elements and source
// vector stream as masked payload with bounds checks only — no codeword
// verification, no corrections, no commit, and the check counters stay
// untouched — so it can run concurrently with verified readers of the
// same shared storage. It is the inner-solve read path of selective
// reliability: whatever corruption streams through is absorbed (or
// detected) by the caller's verified outer iteration, never silently
// committed.
//
// It is not a kernel of its own: the matrix side is exactly the
// range-check-only sweep that interval checking runs between full checks
// (spmvRange with fullCheck false), and the x side is the stencil cache
// reading blocks through ReadBlockNoCheck. Unlike an interval sweep it
// does not advance the sweep counter.
func (m *Matrix) ApplyUnverified(dst, x *Vector, workers int) error {
	return m.spmv(dst, x, SpMVOptions{Workers: workers}, false)
}

func (m *Matrix) spmv(dst, x *Vector, opt SpMVOptions, verify bool) error {
	if dst.Len() != m.Rows() || x.Len() != m.Cols() {
		return fmt.Errorf("core: SpMV dimension mismatch: dst %d, m %dx%d, x %d",
			dst.Len(), m.Rows(), m.Cols(), x.Len())
	}
	fullCheck := verify && m.StartSweep()
	ranges := par.Ranges(m.Rows(), opt.Workers, 8)
	if len(ranges) <= 1 {
		return m.spmvRange(dst, x, 0, m.Rows(), fullCheck, verify && m.mode.Commits(), opt.DisableCache, !verify)
	}
	return par.Run(ranges, func(lo, hi int) error {
		return m.spmvRange(dst, x, lo, hi, fullCheck, false, opt.DisableCache, !verify)
	})
}

// spmvRange multiplies rows [lo,hi); lo must be a multiple of the output
// block size (guaranteed by par.Ranges alignment 8).
//
// Each row follows the verify-then-stream protocol: on checking sweeps
// the row's element codewords are batch-verified first (rowVerifier.row),
// then the payload streams from storage with only the column mask and
// range check applied — no decode interleaved with the multiply. Only
// when a correction could not be committed (a no-commit worker or a
// shared operator hit a live fault) is the row staged through
// ColElems.DecodeLocal and the stage streamed instead, so the fallback's
// cost is paid per faulty row, not per sweep. noVerifyX reads the source
// vector without decoding it (the ModeUnverified x side).
func (m *Matrix) spmvRange(dst, x *Vector, lo, hi int, fullCheck, commit, noCache, noVerifyX bool) error {
	if m.elemScheme == None && m.rowScheme == None && x.scheme == None {
		return m.spmvRawRange(dst, x, lo, hi)
	}
	cur := rowPtrCursor{m: m, check: fullCheck, commit: commit, group: -1}
	cache := stencilCache{v: x, commit: commit, disabled: noCache, noverify: noVerifyX}
	cache.reset()
	ver := m.newRowVerifier(commit)
	colMask := ver.el.Mask()
	xRaw := x.scheme == None

	var elemChecks uint64
	defer func() {
		m.counters.AddChecks(elemChecks + cur.checks)
		x.counters.AddChecks(cache.reads)
	}()

	var out [vecBlock]float64
	// Row r's end pointer is row r+1's start pointer: carry it across
	// iterations so each row costs one cursor lookup, not two.
	rlo32, err := cur.value(lo)
	if err != nil {
		return err
	}
	for r := lo; r < hi; r++ {
		rhi32, err := cur.value(r + 1)
		if err != nil {
			return err
		}
		if rlo32 > rhi32 {
			return m.boundsErr(StructRowPtr, r, rlo32, rhi32)
		}
		rlo, rhi := int(rlo32), int(rhi32)
		dirty := false
		if fullCheck && m.elemScheme != None {
			var checks uint64
			dirty, checks, err = ver.row(r, rlo, rhi)
			elemChecks += checks
			if err != nil {
				return err
			}
		}
		var sum float64
		switch {
		case m.elemScheme == None && xRaw:
			// Unprotected elements and source vector: the tight baseline
			// inner loop. Indices are raw exactly as in an unprotected
			// solver, so no range checks apply (protecting only the row
			// pointers costs only the per-row cursor work, matching the
			// paper's near-free Figure 5 results).
			for k := rlo; k < rhi; k++ {
				sum += m.vals[k] * math.Float64frombits(x.words[m.colIdx[k]])
			}
		case !dirty:
			// Verified clean (or a range-check-only sweep): stream the
			// row unguarded from storage.
			for k := rlo; k < rhi; k++ {
				col := m.colIdx[k] & colMask
				if m.elemScheme != None && col >= uint32(m.cols) {
					return m.boundsErr(StructElements, k, col, uint32(m.cols))
				}
				var xv float64
				if xRaw {
					xv = math.Float64frombits(x.words[col])
				} else {
					xv, err = cache.at(int(col))
					if err != nil {
						return err
					}
				}
				sum += m.vals[k] * xv
			}
		default:
			// Dirty row: stage it, stream the stage.
			cols, vals, err := ver.el.DecodeLocal(r, rlo, rhi-rlo, 1)
			if err != nil {
				return err
			}
			for j, col := range cols {
				if col >= uint32(m.cols) {
					return m.boundsErr(StructElements, rlo+j, col, uint32(m.cols))
				}
				var xv float64
				if xRaw {
					xv = math.Float64frombits(x.words[col])
				} else {
					xv, err = cache.at(int(col))
					if err != nil {
						return err
					}
				}
				sum += vals[j] * xv
			}
		}
		rlo32 = rhi32
		out[r%vecBlock] = sum
		if r%vecBlock == vecBlock-1 {
			dst.WriteBlock(r/vecBlock, &out)
		}
	}
	if hi%vecBlock != 0 {
		for i := hi % vecBlock; i < vecBlock; i++ {
			out[i] = 0
		}
		dst.WriteBlock(hi/vecBlock, &out)
	}
	return nil
}

// spmvRawRange is the unprotected baseline path.
func (m *Matrix) spmvRawRange(dst, x *Vector, lo, hi int) error {
	var out [vecBlock]float64
	for r := lo; r < hi; r++ {
		rlo, rhi := m.rowptr[r], m.rowptr[r+1]
		var sum float64
		for k := rlo; k < rhi; k++ {
			sum += m.vals[k] * math.Float64frombits(x.words[m.colIdx[k]])
		}
		out[r%vecBlock] = sum
		if r%vecBlock == vecBlock-1 {
			dst.WriteBlock(r/vecBlock, &out)
		}
	}
	if hi%vecBlock != 0 {
		for i := hi % vecBlock; i < vecBlock; i++ {
			out[i] = 0
		}
		dst.WriteBlock(hi/vecBlock, &out)
	}
	return nil
}

// stencilCache is a tiny fully-associative cache of decoded vector blocks.
// The five-point SpMV touches three grid rows per output element, so three
// to four distinct blocks alternate; caching their decoded contents removes
// the repeated integrity checks (paper section VI-C).
const stencilSlots = 4

type stencilCache struct {
	v        *Vector
	commit   bool
	disabled bool
	// noverify streams blocks through ReadBlockNoCheck: no decode, no
	// corrections, no check accounting (the ModeUnverified read path).
	noverify bool
	reads    uint64 // codeword checks performed (flushed by the caller)
	clock    uint32
	tags     [stencilSlots]int
	age      [stencilSlots]uint32
	data     [stencilSlots][vecBlock]float64
}

func (c *stencilCache) reset() {
	for i := range c.tags {
		c.tags[i] = -1
		c.age[i] = 0
	}
	c.clock = 0
}

func (c *stencilCache) at(i int) (float64, error) {
	b := i / vecBlock
	if c.disabled {
		var buf [vecBlock]float64
		if c.noverify {
			c.v.ReadBlockNoCheck(b, &buf)
			return buf[i%vecBlock], nil
		}
		c.reads += c.v.checksPerBlock()
		if err := c.v.readBlock(b, &buf, c.commit); err != nil {
			return 0, err
		}
		return buf[i%vecBlock], nil
	}
	c.clock++
	oldest := 0
	for s := 0; s < stencilSlots; s++ {
		if c.tags[s] == b {
			c.age[s] = c.clock
			return c.data[s][i%vecBlock], nil
		}
		if c.age[s] < c.age[oldest] {
			oldest = s
		}
	}
	if c.noverify {
		c.v.ReadBlockNoCheck(b, &c.data[oldest])
	} else {
		c.reads += c.v.checksPerBlock()
		if err := c.v.readBlock(b, &c.data[oldest], c.commit); err != nil {
			c.tags[oldest] = -1
			return 0, err
		}
	}
	c.tags[oldest] = b
	c.age[oldest] = c.clock
	return c.data[oldest][i%vecBlock], nil
}

// Dot returns the inner product of a and b, verifying every codeword it
// reads. Partial sums are accumulated per worker and reduced in range
// order, so results are deterministic for a fixed worker count.
func Dot(a, b *Vector, workers int) (float64, error) {
	if a.Len() != b.Len() {
		return 0, fmt.Errorf("core: Dot length mismatch %d vs %d", a.Len(), b.Len())
	}
	ranges := par.Ranges(a.Blocks(), workers, 1)
	sums := make([]float64, len(ranges))
	err := par.Run(ranges, func(lo, hi int) error {
		var av, bv [vecBlock]float64
		var s float64
		commit := len(ranges) == 1
		a.counters.AddChecks(uint64(hi-lo) * a.checksPerBlock())
		b.counters.AddChecks(uint64(hi-lo) * b.checksPerBlock())
		for blk := lo; blk < hi; blk++ {
			if err := a.readBlock(blk, &av, commit); err != nil {
				return err
			}
			if err := b.readBlock(blk, &bv, commit); err != nil {
				return err
			}
			// Strict element order keeps results bit-identical to the
			// sequential reference loop.
			s += av[0] * bv[0]
			s += av[1] * bv[1]
			s += av[2] * bv[2]
			s += av[3] * bv[3]
		}
		for i := range ranges {
			if ranges[i][0] == lo {
				sums[i] = s
				break
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, s := range sums {
		total += s
	}
	return total, nil
}

// Waxpby computes dst = alpha*x + beta*y block-wise; dst may alias x or y.
// It is the general update kernel behind the CG vector operations.
func Waxpby(dst *Vector, alpha float64, x *Vector, beta float64, y *Vector, workers int) error {
	if dst.Len() != x.Len() || dst.Len() != y.Len() {
		return fmt.Errorf("core: Waxpby length mismatch %d/%d/%d", dst.Len(), x.Len(), y.Len())
	}
	return par.ForEach(dst.Blocks(), workers, 1, func(lo, hi int) error {
		var xv, yv, out [vecBlock]float64
		x.counters.AddChecks(uint64(hi-lo) * x.checksPerBlock())
		y.counters.AddChecks(uint64(hi-lo) * y.checksPerBlock())
		for blk := lo; blk < hi; blk++ {
			if err := x.readBlock(blk, &xv, true); err != nil {
				return err
			}
			if err := y.readBlock(blk, &yv, true); err != nil {
				return err
			}
			for i := range out {
				out[i] = alpha*xv[i] + beta*yv[i]
			}
			dst.WriteBlock(blk, &out)
		}
		return nil
	})
}

// Axpy computes y += alpha*x.
func Axpy(y *Vector, alpha float64, x *Vector, workers int) error {
	return Waxpby(y, alpha, x, 1, y, workers)
}

// Xpby computes y = x + beta*y (the CG search-direction update).
func Xpby(y *Vector, x *Vector, beta float64, workers int) error {
	return Waxpby(y, 1, x, beta, y, workers)
}

// Copy transfers src into dst block-wise, re-encoding under dst's scheme
// (the two vectors may use different protection).
func Copy(dst, src *Vector, workers int) error {
	if dst.Len() != src.Len() {
		return fmt.Errorf("core: Copy length mismatch %d vs %d", dst.Len(), src.Len())
	}
	return par.ForEach(dst.Blocks(), workers, 1, func(lo, hi int) error {
		return CopyBlocks(dst, src, lo, hi)
	})
}

// CopyBlocks is Copy restricted to blocks [b0, b1): each block of src
// is verified (corrections committed) and re-encoded into dst, with the
// kernels' per-call checks accounting. It is the primitive the solver
// recovery controller uses to checkpoint banded operators per band;
// concurrent callers on disjoint block ranges never share a block.
func CopyBlocks(dst, src *Vector, b0, b1 int) error {
	var buf [vecBlock]float64
	src.counters.AddChecks(uint64(b1-b0) * src.checksPerBlock())
	for blk := b0; blk < b1; blk++ {
		if err := src.readBlock(blk, &buf, true); err != nil {
			return err
		}
		dst.WriteBlock(blk, &buf)
	}
	return nil
}

// DiagScale computes dst[i] = diag[i] * x[i] for a plain coefficient
// slice, the Jacobi-preconditioner application. diag is trusted data (it
// is derived from the protected matrix when built); x and dst are
// protected.
func DiagScale(dst *Vector, diag []float64, x *Vector, workers int) error {
	if dst.Len() != x.Len() || len(diag) < x.Len() {
		return fmt.Errorf("core: DiagScale length mismatch dst=%d diag=%d x=%d",
			dst.Len(), len(diag), x.Len())
	}
	n := x.Len()
	return par.ForEach(dst.Blocks(), workers, 1, func(lo, hi int) error {
		var xv, out [vecBlock]float64
		x.counters.AddChecks(uint64(hi-lo) * x.checksPerBlock())
		for blk := lo; blk < hi; blk++ {
			if err := x.readBlock(blk, &xv, true); err != nil {
				return err
			}
			base := blk * vecBlock
			for i := range out {
				if base+i < n {
					out[i] = diag[base+i] * xv[i]
				} else {
					out[i] = 0
				}
			}
			dst.WriteBlock(blk, &out)
		}
		return nil
	})
}

// AxpyRMW is the deliberately unbuffered variant of Axpy used by the
// read-modify-write ablation benchmark: every element update decodes,
// checks, modifies and re-encodes its whole codeword through Vector.Set,
// performing two integrity computations per write — the cost the paper's
// buffered kernels eliminate.
func AxpyRMW(y *Vector, alpha float64, x *Vector) error {
	if y.Len() != x.Len() {
		return fmt.Errorf("core: AxpyRMW length mismatch %d vs %d", y.Len(), x.Len())
	}
	for i := 0; i < y.Len(); i++ {
		xv, err := x.At(i)
		if err != nil {
			return err
		}
		yv, err := y.At(i)
		if err != nil {
			return err
		}
		if err := y.Set(i, yv+alpha*xv); err != nil {
			return err
		}
	}
	return nil
}
