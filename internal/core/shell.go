package core

import (
	"fmt"
	"sync/atomic"

	"abft/internal/csr"
)

// Sweep is the read decision the shell makes for one product and hands
// to its format's Layout.Product. Every product of every format is one
// of three rows:
//
//	full sweep      Full, Sources; Commit in ModeExclusive
//	between checks  Sources only: matrix as masked payload + bounds
//	unverified      nothing: matrix and sources as masked payload
//
// A format never consults the read mode, the check interval or the
// sweep counter itself.
type Sweep struct {
	// Full verifies every matrix codeword the product reads. Otherwise
	// the matrix streams as masked payload with bounds checks only,
	// uncounted: the range-check sweep of paper section VI-A-2.
	Full bool
	// Commit lets a full sweep write the corrections it finds back to
	// matrix storage; a format whose workers may share a codeword
	// narrows it further.
	Commit bool
	// Sources verifies every source-vector codeword once
	// (DecodeSources); false only for unverified reads.
	Sources bool
}

// Layout is what a storage format supplies to its Shell: the one
// product kernel, the whole-matrix verify and the decode back to CSR.
type Layout interface {
	// Product computes dsts[j] = A xs[j] for every j in one pass over
	// the storage under sw, with every dimension already checked.
	Product(dsts, xs []*Vector, workers int, sw Sweep) error
	// VerifyAll verifies and repairs every codeword, counting
	// corrections and detections into acc and continuing past errors
	// so the full damage is counted. It returns the codeword checks
	// performed and the first uncorrectable error.
	VerifyAll(acc *Counters) (checks uint64, err error)
	// ToCSR decodes the matrix back into unprotected CSR form,
	// verifying every codeword on the way.
	ToCSR() (*csr.Matrix, error)
}

// Shell is the format-independent half of a ProtectedMatrix, written
// once and embedded by every storage format (core.Matrix, coo.Matrix,
// sell.Matrix) and by the row-sharded composite (shard.Operator): the
// shape, the element scheme, the counters, the read mode, the check
// interval and the sweep counter, and every entry point of the
// contract. It decides each product's Sweep and leaves the storage to
// the format's Layout.
type Shell struct {
	layout          Layout
	rows, cols, nnz int
	scheme          Scheme
	protected       bool // some structure carries codewords
	counters        *Counters
	// mode is the read discipline the products run under; see
	// SetReadMode.
	mode     ReadMode
	interval int
	// sweep is atomic so concurrent products over one shared matrix
	// (the solve service runs many jobs against a cached operator) stay
	// race-free; each product still observes a unique sweep number.
	sweep atomic.Uint64
}

// Init wires the shell to its format's layout and shape. protected
// reports whether any of the format's structures carries codewords; an
// unprotected matrix never requests a full sweep. Call it once, from
// the format's constructor.
func (s *Shell) Init(l Layout, rows, cols, nnz int, scheme Scheme, protected bool) {
	s.layout, s.rows, s.cols, s.nnz, s.scheme, s.protected = l, rows, cols, nnz, scheme, protected
}

// Rows returns the number of rows.
func (s *Shell) Rows() int { return s.rows }

// Cols returns the number of columns.
func (s *Shell) Cols() int { return s.cols }

// NNZ returns the number of logical entries; CSR counts the explicit
// zeros its schemes' structural constraints padded in.
func (s *Shell) NNZ() int { return s.nnz }

// Scheme returns the element protection scheme.
func (s *Shell) Scheme() Scheme { return s.scheme }

// Protected reports whether any structure carries codewords.
func (s *Shell) Protected() bool { return s.protected }

// SetCounters attaches a statistics accumulator (may be shared or nil).
func (s *Shell) SetCounters(c *Counters) { s.counters = c }

// Counters returns the attached statistics accumulator, or nil.
func (s *Shell) Counters() *Counters { return s.counters }

// CounterSnapshot returns a copy of the attached counters.
func (s *Shell) CounterSnapshot() CounterSnapshot { return s.counters.Snapshot() }

// SetReadMode selects the read discipline for Apply and, in CSR, the
// scanners. ModeShared marks the matrix as applied concurrently from
// multiple goroutines (the solve service shares one cached operator
// across jobs): products then never commit corrections to storage —
// they are still counted and the checks still detect — leaving repair
// to CheckAll/Scrub, which the owner must serialize against Apply.
// ModeUnverified is normally exercised per call through ApplyUnverified
// rather than stored here. Set before the matrix becomes visible to
// other goroutines.
func (s *Shell) SetReadMode(mode ReadMode) { s.mode = mode }

// ReadMode returns the configured read discipline.
func (s *Shell) ReadMode() ReadMode { return s.mode }

// SetCheckInterval makes only every n-th sweep through the matrix a
// full check; the sweeps between range-check only (paper section
// VI-A-2). Zero or one checks every sweep. Set before the matrix is
// shared.
func (s *Shell) SetCheckInterval(n int) { s.interval = n }

// CheckInterval returns the configured cadence.
func (s *Shell) CheckInterval() int { return s.interval }

// StartSweep advances the sweep counter and reports whether this sweep
// must perform full integrity checks (true) or only range checks
// (false). Every verified product calls it once; the first sweep always
// checks.
func (s *Shell) StartSweep() bool {
	sweep := s.sweep.Add(1) - 1
	return s.protected && (s.interval <= 1 || sweep%uint64(s.interval) == 0)
}

// Apply computes dst = A x, satisfying ProtectedMatrix: a full sweep
// verifies every matrix codeword it reads, a sweep between full checks
// range-checks them, and every source-vector codeword is verified once
// per sweep. Under a stored ModeUnverified it is ApplyUnverified.
func (s *Shell) Apply(dst, x *Vector, workers int) error {
	return s.product([]*Vector{dst}, []*Vector{x}, workers, s.mode.Verifies())
}

// ApplyUnverified multiplies dst = A x through the no-decode path
// regardless of the stored read mode: the matrix and the source stream
// as masked payload with bounds checks only — no codeword
// verification, no corrections, no commit, the check counters
// untouched and the sweep counter not advanced — so it can run
// concurrently with verified readers of the same shared storage. It is
// the inner-solve read path of selective reliability: whatever
// corruption streams through is absorbed (or detected) by the caller's
// verified outer iteration, never silently committed.
func (s *Shell) ApplyUnverified(dst, x *Vector, workers int) error {
	return s.product([]*Vector{dst}, []*Vector{x}, workers, false)
}

// ApplyBatch computes dst = A x for every column of x in one verified
// pass over the matrix, satisfying BatchApplier, so the matrix-side
// check cost is paid per pass instead of per right-hand side and
// per-column results are bit-identical to k independent Apply calls.
func (s *Shell) ApplyBatch(dst, x *MultiVector, workers int) error {
	if dst.K() != x.K() {
		return fmt.Errorf("core: SpMM width mismatch: dst %d, x %d", dst.K(), x.K())
	}
	return s.product(dst.cols, x.cols, workers, true)
}

// SpMV computes dst = A x serially: Apply with one worker.
func (s *Shell) SpMV(dst, x *Vector) error { return s.Apply(dst, x, 1) }

// product checks the shapes, makes the sweep's read decision and runs
// the format's kernel. verify false is the unverified row of Sweep.
func (s *Shell) product(dsts, xs []*Vector, workers int, verify bool) error {
	for j, x := range xs {
		if dsts[j].Len() != s.rows || x.Len() != s.cols {
			return fmt.Errorf("core: SpMV dimension mismatch: dst %d, m %dx%d, x %d",
				dsts[j].Len(), s.rows, s.cols, x.Len())
		}
	}
	var sw Sweep
	if verify {
		sw.Full = s.StartSweep()
		sw.Commit = sw.Full && s.mode.Commits()
		sw.Sources = true
	}
	return s.layout.Product(dsts, xs, workers, sw)
}

// CheckAll verifies and repairs every codeword of the matrix: the
// end-of-timestep scrub required by interval checking. It returns the
// number of corrections and the first uncorrectable error, continuing
// past errors so the full damage is counted.
func (s *Shell) CheckAll() (corrected int, err error) {
	// Count into a local accumulator and forward it: the tally is exact
	// for untracked matrices too, and the scrub never writes the
	// attached counters while it runs.
	var acc Counters
	checks, err := s.layout.VerifyAll(&acc)
	s.counters.AddChecks(checks)
	s.counters.AddCorrected(acc.Corrected())
	s.counters.AddDetected(acc.Detected())
	return int(acc.Corrected()), err
}

// Scrub verifies and repairs every codeword, satisfying ProtectedMatrix
// — the patrol sweep of paper section VI-A-2; it is CheckAll under the
// interface's name.
func (s *Shell) Scrub() (corrected int, err error) { return s.CheckAll() }

// Diagonal extracts the main diagonal into dst (length >= Rows), fully
// verifying every codeword on the way. Used to build Jacobi
// preconditioners.
func (s *Shell) Diagonal(dst []float64) error {
	if len(dst) < s.rows {
		return fmt.Errorf("core: Diagonal destination too short")
	}
	plain, err := s.layout.ToCSR()
	if err != nil {
		return err
	}
	plain.Diagonal(dst)
	return nil
}
