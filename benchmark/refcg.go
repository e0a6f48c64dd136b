package main

import (
	"math"

	"abft/internal/csr"
)

// FROZEN REFERENCE — do not edit in a change that claims a performance
// gain. refCG is the denominator of overhead_x and the plain
// single-threaded baseline of every workload: float64 conjugate
// gradients straight over the CSR arrays, x0 = 0, stopping on
// ||r|| <= tol*||r0||, never routed through core, solvers or par. If it
// moved together with the protected path the ratio would hide the move.
func refCG(a *csr.Matrix, b, x []float64, w *refScratch, tol float64, maxIter int) (iters int, converged bool) {
	n := len(b)
	r, p, q := w.r[:n], w.p[:n], w.q[:n]
	var rr float64
	for i, v := range b {
		x[i] = 0
		r[i] = v
		p[i] = v
		rr += v * v
	}
	stop := tol * tol * rr
	if rr <= stop {
		return 0, true
	}
	for iters = 1; iters <= maxIter; iters++ {
		var pq float64
		for i := 0; i < n; i++ {
			var s float64
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				s += a.Vals[k] * p[a.Cols[k]]
			}
			q[i] = s
			pq += p[i] * s
		}
		if pq == 0 {
			return iters, false
		}
		alpha := rr / pq
		var rrNew float64
		for i := 0; i < n; i++ {
			x[i] += alpha * p[i]
			r[i] -= alpha * q[i]
			rrNew += r[i] * r[i]
		}
		if rrNew <= stop {
			return iters, true
		}
		beta := rrNew / rr
		for i := 0; i < n; i++ {
			p[i] = r[i] + beta*p[i]
		}
		rr = rrNew
	}
	return maxIter, false
}

// refScratch holds refCG's work vectors, allocated once per run so the
// reference's timing carries no allocator or collector noise.
type refScratch struct{ r, p, q []float64 }

func newRefScratch(n int) *refScratch {
	return &refScratch{r: make([]float64, n), p: make([]float64, n), q: make([]float64, n)}
}

// residualOK recomputes the true residual on the plain CSR arrays and
// reports whether ||b - A x||_2 <= 10*tol*||b||_2. It shares no code
// with refCG or the program under test, so a wrong answer from either
// cannot vouch for itself.
func residualOK(a *csr.Matrix, b, x []float64, tol float64) bool {
	var res, bb float64
	for i, bi := range b {
		s := bi
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s -= a.Vals[k] * x[a.Cols[k]]
		}
		res += s * s
		bb += bi * bi
	}
	return !math.IsNaN(res) && math.Sqrt(res) <= 10*tol*math.Sqrt(bb)
}
