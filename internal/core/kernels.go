package core

import (
	"fmt"

	"abft/internal/par"
)

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
		var av, bv [BlockLen]float64
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
			for i, x := range av {
				s += x * bv[i]
			}
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
		var xv, yv, out [BlockLen]float64
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
	var buf [BlockLen]float64
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
		var xv, out [BlockLen]float64
		x.counters.AddChecks(uint64(hi-lo) * x.checksPerBlock())
		for blk := lo; blk < hi; blk++ {
			if err := x.readBlock(blk, &xv, true); err != nil {
				return err
			}
			base := blk * BlockLen
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
