package core

import "fmt"

// Dot returns the inner product of a and b, verifying every codeword it
// reads (a vector named twice is read once). Partial sums are taken per
// worker range and reduced in range order, so results are deterministic
// for a fixed worker count.
func Dot(a, b *Vector, workers int) (float64, error) {
	return Pass(FusedOptions{Workers: workers}, DotOf{a, b})
}

// Waxpby computes dst = alpha*x + beta*y block-wise; dst may alias x or y.
func Waxpby(dst *Vector, alpha float64, x *Vector, beta float64, y *Vector, workers int) error {
	_, err := Pass(FusedOptions{Workers: workers}, DotOf{}, Lin{Dst: dst, A: alpha, X: x, B: beta, Y: y})
	return err
}

// Axpy computes y += alpha*x.
func Axpy(y *Vector, alpha float64, x *Vector, workers int) error {
	return Waxpby(y, alpha, x, 1, y, workers)
}

// Copy transfers src into dst block-wise, re-encoding under dst's scheme
// (the two vectors may use different protection).
func Copy(dst, src *Vector, workers int) error {
	_, err := Pass(FusedOptions{Workers: workers}, DotOf{}, Lin{Dst: dst, X: src})
	return err
}

// FusedAxpyDot performs the classic CG tail update in one verified
// pass:
//
//	x += alpha*p;  r -= alpha*q;  return r.r
//
// bit-identical to Axpy, Axpy and Dot back to back over the same
// decomposition, with each of p, x, q and r read once. The solvers'
// CG moves x += alpha*p into its direction update instead, which rides
// the next product (UpdateRequest); the benchmark times this kernel.
func FusedAxpyDot(x *Vector, alpha float64, p, r, q *Vector, opt FusedOptions) (float64, error) {
	return Pass(opt, DotOf{r, r}, Lin{Dst: x, A: alpha, X: p, B: 1, Y: x}, Lin{Dst: r, A: -alpha, X: q, B: 1, Y: r})
}

// FusedUpdateNorm computes dst = alpha*x + beta*y and returns dst.dst
// from the same pass — the residual-formation idiom (r = b - A*x
// followed by r.r). dst may alias x or y.
func FusedUpdateNorm(dst *Vector, alpha float64, x *Vector, beta float64, y *Vector, opt FusedOptions) (float64, error) {
	return Pass(opt, DotOf{dst, dst}, Lin{Dst: dst, A: alpha, X: x, B: beta, Y: y})
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
