// Package solvers implements the iterative sparse solvers TeaLeaf offers —
// Conjugate Gradients (the paper's solver), preconditioned CG, Jacobi,
// Chebyshev and PPCG — on top of the ABFT-protected kernels of package
// core. All five run on a shared iteration engine whose recovery
// controller (Options.Recovery) snapshots the live solver vectors into
// codeword-protected checkpoint storage and rolls back past detected
// uncorrectable faults in dynamic state — the completion of the paper's
// design Bosilca et al.'s ABFT line prescribes. With recovery off, a
// detected uncorrectable fault surfaces as an error wrapping
// *core.FaultError with the iteration it interrupted, leaving the
// policy (abort, retry the solve, accept the iteration loss) to the
// application; this is the flexibility over hardware ECC the paper
// highlights.
package solvers

import (
	"errors"
	"fmt"
	"math"
	"time"

	"abft/internal/core"
	"abft/internal/precond"
)

// Operator is the linear operator a solver iterates with: a protected
// matrix of any storage format bound to a worker count, adapted via
// MatrixOperator. Every method is part of the contract — every storage
// format and the sharded composite has the batched and the unverified
// kernel — so no solver probes for a product or falls back to another
// one: BlockCG multiplies batched and selective FGMRES's inner solve
// unverified through any operator, a wrapper included.
//
// CG's and BlockCG's dst carries a request for x . dst
// (core.DotRequest), which the matrix sweep writing dst from x answers.
// A wrapper that hands dst and x to the matrix unchanged passes the
// request on with them; one that writes dst itself after that product
// must withdraw the answer (dst.PendingDot(nil)).
type Operator interface {
	// Rows returns the operator dimension.
	Rows() int
	// Apply computes dst = A x.
	Apply(dst, x *core.Vector) error
	// ApplyBatch computes dst = A x for every column in one verified
	// pass, so BlockCG pays the matrix checks once per iteration.
	ApplyBatch(dst, x *core.MultiVector) error
	// ApplyUnverified computes dst = A x through the no-decode read path
	// (core.UnverifiedApplier): nothing committed, counters untouched.
	// Only selective FGMRES's inner solve calls it.
	ApplyUnverified(dst, x *core.Vector) error
	// Diagonal extracts the main diagonal (for Jacobi preconditioning).
	Diagonal(dst []float64) error
}

// BandedOperator is an optional Operator capability: an operator
// with a row-band decomposition (the sharded composite of internal/shard)
// supplies its own global inner product — per-band partial sums reduced
// in a binary tree, the in-process analogue of an MPI allreduce — and the
// band ranges it reduces over, aligned to core.BlockLen. The engine routes
// every inner product through Dot, mirrors its reduction in the fused
// CG tail and checkpoints per band. The two come together: a Dot whose
// reduction the fused kernels cannot mirror has no way to be expressed.
type BandedOperator interface {
	Dot(a, b *core.Vector) (float64, error)
	BandRanges() [][2]int
}

// ResidentJacobi is the other optional Operator capability: an operator
// that keeps a protected Jacobi resident with it (an abftd cache entry)
// hands it to the solvers as their D^-1 instead of a diagonal to build
// one from. The Jacobi is shared: its owner fixed its read mode and
// counters and scrubs it, so a solve only applies it. The error is why
// the owner could build none (a zero on the diagonal).
type ResidentJacobi interface {
	Jacobi() (precond.Preconditioner, error)
}

// capability returns op's optional capability C, and whether it has
// one. It looks at op itself, at the matrix behind a MatrixOperator, and
// at the operator behind a wrapper that names it with Unwrap
// (faults.InjectingOperator), so an operator bound by the library facade
// or wrapped for fault injection serves the capability as it does bare;
// any other wrapper has it only if it says so.
func capability[C any](op Operator) (C, bool) {
	for {
		if c, ok := op.(C); ok {
			return c, true
		}
		switch w := op.(type) {
		case MatrixOperator:
			c, ok := w.M.(C)
			return c, ok
		case interface{ Unwrap() Operator }:
			op = w.Unwrap()
		default:
			var none C
			return none, false
		}
	}
}

// MatrixOperator adapts any format's protected matrix (CSR, COO,
// SELL-C-sigma) to the Operator interface, binding it to a worker count.
type MatrixOperator struct {
	M core.ProtectedMatrix
	// Workers is the kernel goroutine count; below 2 runs serially.
	Workers int
}

// Rows returns the matrix dimension.
func (o MatrixOperator) Rows() int { return o.M.Rows() }

// Cols returns the matrix column count (DenseSolve uses it to reject
// rectangular operators before densifying).
func (o MatrixOperator) Cols() int { return o.M.Cols() }

// Apply computes dst = M x with the configured worker count.
func (o MatrixOperator) Apply(dst, x *core.Vector) error {
	return o.M.Apply(dst, x, o.Workers)
}

// ApplyBatch computes dst = M x for every column with the configured
// worker count.
func (o MatrixOperator) ApplyBatch(dst, x *core.MultiVector) error {
	return o.M.ApplyBatch(dst, x, o.Workers)
}

// ApplyUnverified computes dst = M x through the no-decode read path with
// the configured worker count.
func (o MatrixOperator) ApplyUnverified(dst, x *core.Vector) error {
	return o.M.ApplyUnverified(dst, x, o.Workers)
}

// Diagonal extracts the main diagonal of the protected matrix.
func (o MatrixOperator) Diagonal(dst []float64) error { return o.M.Diagonal(dst) }

// Options configures a solve.
type Options struct {
	// Tol is the convergence tolerance on the residual L2 norm. With
	// RelativeTol it is measured against the initial residual norm,
	// otherwise absolutely (TeaLeaf's tl_eps behaviour).
	Tol float64
	// RelativeTol switches Tol to ||r|| <= Tol * ||r0||.
	RelativeTol bool
	// MaxIter bounds the iteration count (default 10000).
	MaxIter int
	// Workers is the kernel goroutine count for vector operations (the
	// matrix kernels run with the operator's own, MatrixOperator.Workers).
	Workers int
	// Preconditioner, when non-nil, is applied as z = M^-1 r each
	// iteration (CG, PCG and Chebyshev; PPCG supplies its own
	// polynomial and ignores it). The ECC-protected preconditioners of
	// internal/precond satisfy the interface.
	Preconditioner Preconditioner
	// EigenIters is the number of CG iterations used to estimate the
	// operator spectrum for Chebyshev and PPCG (default 20).
	EigenIters int
	// InnerSteps is the PPCG polynomial degree and the FGMRES inner
	// Jacobi-Richardson step count (default 4).
	InnerSteps int
	// Restart is the FGMRES restart length: the Krylov basis grows to
	// Restart vectors before the cycle closes, updates x and restarts
	// (default 30). Other solvers ignore it.
	Restart int
	// Reliability selects full (every read verified, the default) or
	// selective reliability (FGMRES runs its inner solve through the
	// unverified no-decode read path while the outer iteration stays
	// verified). Solvers without an unreliable phase ignore it.
	Reliability Reliability
	// InnerHook, when set, observes FGMRES's plain inner-solve scratch
	// after each inner step: cycle and j locate the Arnoldi position,
	// step the inner Richardson step just completed, and z is the live
	// scratch (mutations model faults striking unprotected inner state —
	// the window inner-phase fault campaigns corrupt). Not intended for
	// general use.
	InnerHook func(cycle, j, step int, z []float64)
	// RecordHistory stores the residual norm after every iteration.
	RecordHistory bool
	// Recovery configures the reaction to a detected uncorrectable
	// fault in the solver's own dynamic state: off (surface the error,
	// the default), rollback (checkpoint every K iterations and resume
	// from the last good checkpoint), or restart (rewind to iteration
	// zero). See the Recovery type for the knobs.
	Recovery Recovery
	// StateHook, when set, observes the registered live solver vectors
	// once per iteration, before the iteration body runs — the window
	// the fault campaigns of internal/faults use to corrupt dynamic
	// solver state mid-solve. Not intended for general use.
	StateHook func(it int, live []*core.Vector)
	// Progress, when set, observes iteration-engine milestones as they
	// happen: one event per completed iteration (with the current
	// residual norm), per checkpoint snapshot and per rollback. The
	// solve service uses it to build per-job traces and the fault-event
	// journal; callers must not block in it.
	Progress func(ProgressEvent)
}

// ProgressKind names an iteration-engine milestone.
type ProgressKind int

const (
	// ProgressIteration: one recurrence iteration completed;
	// Iteration/Residual hold its index and residual norm.
	ProgressIteration ProgressKind = iota
	// ProgressCheckpoint: the recovery controller snapshotted the live
	// vectors after Iteration; Duration is the snapshot wall time.
	ProgressCheckpoint
	// ProgressRollback: a detected uncorrectable fault at Iteration was
	// rolled back; Resumed is the iteration the solve restarts from and
	// Duration the checkpoint-restore wall time.
	ProgressRollback
)

// ProgressEvent is one Options.Progress observation.
type ProgressEvent struct {
	Kind      ProgressKind
	Iteration int
	// Residual is the residual L2 norm after Iteration (iteration and
	// checkpoint events; rollback events carry the restored norm).
	Residual float64
	// Resumed is the iteration a rollback resumes from.
	Resumed int
	// Duration is the wall time of the checkpoint snapshot or rollback
	// restore.
	Duration time.Duration
}

// Defaults applied by withDefaults, named so validation errors can
// report them.
const (
	defaultTol     = 1e-10
	defaultMaxIter = 10000
	defaultRestart = 30
)

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = defaultTol
	}
	if o.MaxIter == 0 {
		o.MaxIter = defaultMaxIter
	}
	if o.EigenIters == 0 {
		o.EigenIters = 20
	}
	if o.InnerSteps == 0 {
		o.InnerSteps = 4
	}
	if o.Restart == 0 {
		o.Restart = defaultRestart
	}
	return o
}

// Validate rejects option values that would otherwise iterate forever
// or not at all: a negative MaxIter runs zero iterations, a negative or
// NaN tolerance can never be met. Zero keeps meaning "the default"
// throughout, so every error names the field and the default zero
// selects. Every solver entry point validates; the solve service calls
// it at admission so bad requests fail before touching the queue.
func (o Options) Validate() error {
	if o.MaxIter < 0 {
		return fmt.Errorf("solvers: MaxIter %d must be positive (zero selects the default %d)",
			o.MaxIter, defaultMaxIter)
	}
	if o.Tol < 0 || math.IsNaN(o.Tol) {
		return fmt.Errorf("solvers: Tol %g must be a positive tolerance (zero selects the default %g)",
			o.Tol, defaultTol)
	}
	if o.EigenIters < 0 {
		return fmt.Errorf("solvers: EigenIters %d must be positive (zero selects the default 20)", o.EigenIters)
	}
	if o.InnerSteps < 0 {
		return fmt.Errorf("solvers: InnerSteps %d must be positive (zero selects the default 4)", o.InnerSteps)
	}
	if o.Restart < 0 {
		return fmt.Errorf("solvers: Restart %d must be positive (zero selects the default %d)",
			o.Restart, defaultRestart)
	}
	return o.Recovery.validate()
}

// Result reports the outcome of a solve.
type Result struct {
	// Iterations is the number of solver iterations performed.
	Iterations int
	// ResidualNorm is the final residual L2 norm (from the recurrence,
	// not recomputed).
	ResidualNorm float64
	// Converged reports whether the tolerance was met within MaxIter.
	Converged bool
	// Alphas and Betas are the CG coefficients (CG-family solvers), the
	// inputs to Lanczos eigenvalue estimation.
	Alphas, Betas []float64
	// EigMin and EigMax are the spectrum estimates used (Chebyshev/PPCG).
	EigMin, EigMax float64
	// History holds per-iteration residual norms when requested.
	History []float64
	// Checkpoints is the number of snapshots the recovery controller
	// took (zero with Recovery off).
	Checkpoints int
	// Rollbacks counts recoveries from detected uncorrectable faults
	// in dynamic solver state (a restart counts as a rollback to
	// iteration zero).
	Rollbacks int
	// RecomputedIterations is the total number of iterations re-run
	// after rollbacks, the faulted iteration included.
	RecomputedIterations int
	// ArnoldiSteps is the total number of Arnoldi steps across FGMRES
	// restart cycles (zero for other solvers) — each step performs
	// exactly one verified operator application, the denominator for
	// selective-reliability verified-read accounting.
	ArnoldiSteps int
}

// Preconditioner applies z = M^-1 r.
type Preconditioner interface {
	Apply(z, r *core.Vector) error
}

// IterationError wraps a fault with the iteration that hit it.
type IterationError struct {
	Solver    string
	Iteration int
	Err       error
}

func (e *IterationError) Error() string {
	return fmt.Sprintf("%s: iteration %d: %v", e.Solver, e.Iteration, e.Err)
}

// Unwrap exposes the underlying fault for errors.As.
func (e *IterationError) Unwrap() error { return e.Err }

func iterErr(solver string, it int, err error) error {
	if err == nil {
		return nil
	}
	return &IterationError{Solver: solver, Iteration: it, Err: err}
}

// IsFault reports whether err stems from a detected uncorrectable ABFT
// fault (as opposed to a numerical breakdown or sizing problem).
func IsFault(err error) bool {
	var fe *core.FaultError
	var be *core.BoundsError
	return errors.As(err, &fe) || errors.As(err, &be)
}

// newTemp allocates a work vector matching x's protection scheme and
// counters.
func newTemp(x *core.Vector) *core.Vector {
	v := core.NewVector(x.Len(), x.Scheme())
	v.SetCounters(x.Counters())
	return v
}

// converged evaluates the stopping rule on squared residual norms.
func converged(rr, rr0 float64, opt Options) bool {
	if opt.RelativeTol {
		return rr <= opt.Tol*opt.Tol*rr0
	}
	return rr <= opt.Tol*opt.Tol
}
