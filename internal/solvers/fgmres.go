package solvers

import (
	"errors"
	"math"

	"abft/internal/core"
	"abft/internal/precond"
)

// FGMRES solves A x = b by flexible restarted GMRES — the nonsymmetric
// solver, and the repository's selective-reliability host (Bridges,
// Ferreira, Heroux & Hoemmen: run the bulk of the work in a fast
// unreliable mode inside a reliable outer iteration that absorbs
// errors).
//
// Each engine iteration is one restart cycle: a verified true residual
// r = b - A x opens the cycle, an Arnoldi process with modified
// Gram-Schmidt builds up to Options.Restart preconditioned directions
// Z[j] with their verified images A Z[j], a Givens-rotation least
// squares tracks the residual, and the cycle closes with x += Z y. The
// flexible formulation stores Z[j] explicitly, so the inner
// preconditioner-solve may vary per step — the property that makes an
// unreliable inner solve sound: H is assembled exclusively from
// verified quantities (A Z[j] and the orthonormal basis V), so a fault
// that corrupts an inner solve only degrades the search direction Z[j].
// The verified least-squares solve and the verified residual recompute
// then absorb it as extra iterations, never as silent corruption.
//
// With Options.Reliability selective, the inner solve (a fixed-step
// Jacobi-Richardson iteration when no explicit preconditioner is
// configured) reads all its data through the unverified no-decode fast
// path: per Arnoldi step, exactly one verified operator application
// remains (the outer A Z[j]) instead of one per inner step. Inner
// results are sanitized at the reliable boundary — a non-finite or
// faulted inner solve falls back to the unpreconditioned direction
// Z[j] = V[j] — and re-encoded into protected storage, so nothing
// unverified ever reaches the outer state.
//
// The recovery controller checkpoints x between cycles; a detected
// uncorrectable fault in outer state rolls back and replays the cycle.
func FGMRES(a Operator, x, b *core.Vector, opt Options) (Result, error) {
	e, err := newEngine("fgmres", a, x, b, opt)
	if err != nil {
		return Result{}, err
	}
	opt = e.opt
	w := e.w
	m := opt.Restart

	r := e.temp()
	wv := e.temp()
	v := make([]*core.Vector, m+1)
	for i := range v {
		v[i] = e.temp()
	}
	z := make([]*core.Vector, m)
	for i := range z {
		z[i] = e.temp()
	}

	inner, err := newInnerSolver(a, x, opt)
	if err != nil {
		return e.res, iterErr("fgmres", 0, err)
	}

	// h is the (m+1) x m least-squares system, g its right-hand side,
	// cs/sn the accumulated Givens rotations, y the cycle's update
	// coefficients. All plain: the system is rebuilt every cycle from
	// verified dot products, so it needs no protection or checkpointing.
	h := make([][]float64, m+1)
	for i := range h {
		h[i] = make([]float64, m)
	}
	g := make([]float64, m+1)
	cs := make([]float64, m)
	sn := make([]float64, m)
	y := make([]float64, m)

	var rr0 float64
	first := true

	// x is the only state that survives a cycle; everything else is
	// rebuilt from it, so a rollback replays the whole cycle.
	e.protect(x)
	return e.run(func(cycle int) (bool, error) {
		// Verified true residual opens every cycle — the reliable outer
		// boundary that also guards the Converged claim below.
		if err := a.Apply(wv, x); err != nil {
			return false, err
		}
		rr, err := e.updateNorm(r, 1, b, -1, wv)
		if err != nil {
			return false, err
		}
		if first {
			rr0 = rr
			first = false
		}
		e.res.ResidualNorm = sqrt(rr)
		if e.converged(rr, rr0) {
			return true, nil
		}
		beta := sqrt(rr)
		if err := core.Waxpby(v[0], 1/beta, r, 0, r, w); err != nil {
			return false, err
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0 // directions built this cycle
		for j := 0; j < m; j++ {
			// The (possibly unreliable) inner solve: z[j] ~= M^-1 v[j].
			if err := inner.solve(z[j], v[j], cycle, j); err != nil {
				return false, err
			}
			var hh float64
			for attempt := 0; ; attempt++ {
				// The cycle's one verified operator application per step.
				if err := a.Apply(wv, z[j]); err != nil {
					return false, err
				}
				e.res.ArnoldiSteps++
				// Modified Gram-Schmidt against the verified basis.
				finite := true
				for i := 0; i <= j; i++ {
					hij, err := e.dot(wv, v[i])
					if err != nil {
						return false, err
					}
					h[i][j] = hij
					if math.IsNaN(hij) || math.IsInf(hij, 0) {
						finite = false
					}
					if err := core.Axpy(wv, -hij, v[i], w); err != nil {
						return false, err
					}
				}
				var err error
				hh, err = e.dot(wv, wv)
				if err != nil {
					return false, err
				}
				if finite && !math.IsNaN(hh) && !math.IsInf(hh, 0) {
					break
				}
				if attempt > 0 {
					return false, errBreakdown
				}
				// The boundary validation behind the absorption contract:
				// an inner fault can hand back a direction so extreme the
				// verified recurrence overflows. Discard it for the
				// unpreconditioned direction z[j] = v[j] — built entirely
				// from verified data, so the redo is finite — and pay one
				// extra verified operator application, never corruption.
				if err := core.Waxpby(z[j], 1, v[j], 0, v[j], w); err != nil {
					return false, err
				}
			}
			hj1 := sqrt(hh)
			h[j+1][j] = hj1
			k = j + 1
			lucky := hj1 == 0
			if !lucky {
				if err := core.Waxpby(v[j+1], 1/hj1, wv, 0, wv, w); err != nil {
					return false, err
				}
			}
			// Fold column j into the triangular system: replay the
			// accumulated rotations, then eliminate h[j+1][j].
			for i := 0; i < j; i++ {
				t := cs[i]*h[i][j] + sn[i]*h[i+1][j]
				h[i+1][j] = -sn[i]*h[i][j] + cs[i]*h[i+1][j]
				h[i][j] = t
			}
			denom := math.Hypot(h[j][j], h[j+1][j])
			if denom == 0 {
				return false, errBreakdown
			}
			cs[j] = h[j][j] / denom
			sn[j] = h[j+1][j] / denom
			h[j][j] = denom
			h[j+1][j] = 0
			g[j+1] = -sn[j] * g[j]
			g[j] = cs[j] * g[j]
			// |g[j+1]| estimates the least-squares residual: close the
			// cycle early once it meets the tolerance (or the basis
			// luckily spans the solution).
			if lucky || e.converged(g[j+1]*g[j+1], rr0) {
				break
			}
		}

		// Back-substitute the k x k triangular system H y = g.
		for j := k - 1; j >= 0; j-- {
			s := g[j]
			for i := j + 1; i < k; i++ {
				s -= h[j][i] * y[i]
			}
			if h[j][j] == 0 {
				return false, errBreakdown
			}
			y[j] = s / h[j][j]
		}
		// x += sum_j y_j z_j.
		for j := 0; j < k; j++ {
			if err := core.Axpy(x, y[j], z[j], w); err != nil {
				return false, err
			}
		}
		e.res.ResidualNorm = math.Abs(g[k])
		if e.converged(g[k]*g[k], rr0) {
			// The estimate says done; only a verified true-residual
			// recompute may declare it, so a degraded inner solve can
			// cost extra cycles but never a false Converged.
			if err := a.Apply(wv, x); err != nil {
				return false, err
			}
			rr, err := e.updateNorm(r, 1, b, -1, wv)
			if err != nil {
				return false, err
			}
			e.res.ResidualNorm = sqrt(rr)
			return e.converged(rr, rr0), nil
		}
		return false, nil
	})
}

// innerSolver runs FGMRES's inner preconditioner-solve. With an
// explicit preconditioner configured it delegates to it; otherwise it
// runs Options.InnerSteps steps of Jacobi-Richardson iteration
//
//	z_0 = D^-1 v,   z_{s+1} = z_s + D^-1 (v - A z_s)
//
// on plain float64 scratch. D^-1 is newJacobi's protected Jacobi, read
// verified under either reliability and applied to the plain scratch
// through core.None vectors. Under selective reliability every other
// read — the source basis vector, the SpMV inside each step, the
// product read-back — goes through the unverified no-decode path; the
// step SpMV is the operator's per-call ApplyUnverified, so a cached
// shared operator's stored read mode is never touched.
type innerSolver struct {
	pre       Preconditioner
	steps     int
	selective bool
	hook      func(cycle, j, step int, z []float64)

	jac              precond.Preconditioner // D^-1 (Richardson)
	vbuf, zbuf, wbuf []float64
	zv, wz           *core.Vector // plain scratch bridging slices <-> SpMV and D^-1
	applyInner       func(dst, x *core.Vector) error
}

func newInnerSolver(a Operator, x *core.Vector, opt Options) (*innerSolver, error) {
	in := &innerSolver{
		pre:       opt.Preconditioner,
		steps:     opt.InnerSteps,
		selective: opt.Reliability == ReliabilitySelective,
		hook:      opt.InnerHook,
	}
	if in.pre != nil {
		return in, nil
	}
	// Richardson setup: D^-1 is built (or found resident) once, before
	// any unreliable phase runs.
	var err error
	if in.jac, err = newJacobi(a, x, opt.Workers); err != nil {
		return nil, err
	}
	// vbuf and wbuf take whole blocks straight from Read.
	n := x.Len()
	padded := (n + core.BlockLen - 1) / core.BlockLen * core.BlockLen
	in.vbuf = make([]float64, padded)
	in.zbuf = make([]float64, n)
	in.wbuf = make([]float64, padded)
	in.zv = core.NewVector(n, core.None)
	in.wz = core.NewVector(n, core.None)
	in.applyInner = a.Apply
	if in.selective {
		in.applyInner = a.ApplyUnverified
	}
	return in, nil
}

// solve computes z ~= M^-1 v. z is always written through the verified
// encode path (WriteBlock), so whatever the inner phase produced lands
// in outer state as clean codewords; under selective reliability a
// faulted or non-finite inner result degrades to the unpreconditioned
// direction z = v instead of surfacing — the absorption contract. A
// fault D^-1's verified read detects is in resident state, not inner
// scratch, and surfaces under either reliability.
func (in *innerSolver) solve(z, v *core.Vector, cycle, j int) error {
	if in.pre != nil {
		return in.pre.Apply(z, v)
	}
	if err := in.readVec(in.vbuf, v); err != nil {
		return err
	}
	if err := in.richardson(cycle, j); err != nil {
		var fe *core.FaultError
		if !in.selective || errors.As(err, &fe) {
			return err
		}
		// Absorbed: a fault inside the unreliable phase costs the step
		// its preconditioning, nothing more.
		copy(in.zbuf, in.vbuf)
	}
	for _, x := range in.zbuf {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// Sanitize at the reliable boundary: never let a non-finite
			// inner product poison the verified outer recurrence.
			copy(in.zbuf, in.vbuf)
			break
		}
	}
	z.CopyFrom(in.zbuf)
	return nil
}

// richardson runs the fixed-step inner iteration on plain scratch.
// After every step the InnerHook observes (and may corrupt) the live
// scratch — the seam inner-phase fault campaigns strike.
func (in *innerSolver) richardson(cycle, j int) error {
	if err := in.scale(in.zbuf, in.vbuf); err != nil {
		return err
	}
	if in.hook != nil {
		in.hook(cycle, j, 0, in.zbuf)
	}
	for s := 1; s < in.steps; s++ {
		in.zv.CopyFrom(in.zbuf)
		if err := in.applyInner(in.wz, in.zv); err != nil {
			return err
		}
		if err := in.readVec(in.wbuf, in.wz); err != nil {
			return err
		}
		for i := range in.zbuf {
			in.wbuf[i] = in.vbuf[i] - in.wbuf[i]
		}
		if err := in.scale(in.wbuf, in.wbuf); err != nil {
			return err
		}
		for i := range in.zbuf {
			in.zbuf[i] += in.wbuf[i]
		}
		if in.hook != nil {
			in.hook(cycle, j, s, in.zbuf)
		}
	}
	return nil
}

// scale computes dst = D^-1 src, both plain scratch, through the
// protected Jacobi.
func (in *innerSolver) scale(dst, src []float64) error {
	in.zv.CopyFrom(src)
	if err := in.jac.Apply(in.wz, in.zv); err != nil {
		return err
	}
	return in.wz.CopyTo(dst)
}

// readVec streams a protected vector's blocks into plain scratch:
// unverified under selective reliability, fully verified otherwise.
func (in *innerSolver) readVec(dst []float64, v *core.Vector) error {
	mode := core.ModeExclusive
	if in.selective {
		mode = core.ModeUnverified
	}
	return v.Read(0, v.Blocks(), dst, mode)
}
