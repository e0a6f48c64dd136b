package core

import (
	"fmt"
	"sync/atomic"
)

// Structure identifies which protected data structure a fault was found in.
type Structure uint8

const (
	// StructVector is a dense float64 vector.
	StructVector Structure = iota
	// StructElements is the CSR value + column-index element stream.
	StructElements
	// StructRowPtr is the CSR row-pointer vector.
	StructRowPtr
	// StructHalo is a sharded operator's resident halo landing vector —
	// the protected buffer the exchange packs a band's halo into and the
	// band reads it back from.
	StructHalo
	// StructPrecond is a preconditioner's resident setup product — the
	// protected inverse-diagonal or inverse-block state of
	// internal/precond, corrupted between preconditioner applications.
	StructPrecond
	// StructSolverState is a solver's live dynamic state — the x, r, p
	// iteration vectors the recovery controller of internal/solvers
	// checkpoints — corrupted mid-solve between iterations.
	StructSolverState
)

func (s Structure) String() string {
	switch s {
	case StructVector:
		return "vector"
	case StructElements:
		return "elements"
	case StructRowPtr:
		return "rowptr"
	case StructHalo:
		return "halo"
	case StructPrecond:
		return "precond"
	case StructSolverState:
		return "solverstate"
	default:
		return fmt.Sprintf("Structure(%d)", uint8(s))
	}
}

// FaultError reports a detected-but-uncorrectable error (a DUE in the
// paper's taxonomy). The application decides how to react: with an
// iterative solver it may re-start the solve or the timestep rather than
// abort, an option hardware ECC does not offer.
type FaultError struct {
	Structure Structure
	Scheme    Scheme
	// Index locates the first affected codeword: the group index for
	// vectors and row pointers, the element index for matrix elements
	// (under CRC32C the CSR row, or the first storage position of the
	// SELL slice chunk).
	Index int
	// Detail describes the check that failed.
	Detail string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("abft: uncorrectable error in %s (%s) at codeword %d: %s",
		e.Structure, e.Scheme, e.Index, e.Detail)
}

// BoundsError reports an out-of-range index discovered by the cheap range
// checks that replace full integrity checks between checking intervals.
// The range check prevents the segmentation fault; the corruption itself
// is classified at the next full check.
type BoundsError struct {
	Structure Structure
	Index     int
	Value     uint32
	Limit     uint32
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("abft: %s index %d out of range: %d >= %d (corruption caught by range check)",
		e.Structure, e.Index, e.Value, e.Limit)
}

// Counters accumulates integrity-check statistics. All methods are safe
// for concurrent use; kernels running on multiple goroutines share one
// Counters value.
type Counters struct {
	checks    atomic.Uint64
	corrected atomic.Uint64
	detected  atomic.Uint64
	bounds    atomic.Uint64
}

// AddChecks records n completed codeword integrity checks.
func (c *Counters) AddChecks(n uint64) {
	if c != nil {
		c.checks.Add(n)
	}
}

// AddCorrected records a repaired single-bit (or CRC-located) error.
func (c *Counters) AddCorrected(n uint64) {
	if c != nil {
		c.corrected.Add(n)
	}
}

// AddDetected records a detected uncorrectable error.
func (c *Counters) AddDetected(n uint64) {
	if c != nil {
		c.detected.Add(n)
	}
}

// AddBounds records an out-of-range access stopped by a range check.
func (c *Counters) AddBounds(n uint64) {
	if c != nil {
		c.bounds.Add(n)
	}
}

// Checks returns the number of codeword integrity checks performed. All
// getters tolerate a nil receiver (counting disabled) and return zero.
func (c *Counters) Checks() uint64 {
	if c == nil {
		return 0
	}
	return c.checks.Load()
}

// Corrected returns the number of corrected errors.
func (c *Counters) Corrected() uint64 {
	if c == nil {
		return 0
	}
	return c.corrected.Load()
}

// Detected returns the number of detected uncorrectable errors.
func (c *Counters) Detected() uint64 {
	if c == nil {
		return 0
	}
	return c.detected.Load()
}

// Bounds returns the number of range-check violations.
func (c *Counters) Bounds() uint64 {
	if c == nil {
		return 0
	}
	return c.bounds.Load()
}

// Snapshot returns a plain-value copy for reporting.
func (c *Counters) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		Checks:    c.Checks(),
		Corrected: c.Corrected(),
		Detected:  c.Detected(),
		Bounds:    c.Bounds(),
	}
}

// CounterSnapshot is a point-in-time copy of Counters.
type CounterSnapshot struct {
	Checks    uint64
	Corrected uint64
	Detected  uint64
	Bounds    uint64
}

// Add returns the element-wise sum of two snapshots.
func (s CounterSnapshot) Add(o CounterSnapshot) CounterSnapshot {
	return CounterSnapshot{
		Checks:    s.Checks + o.Checks,
		Corrected: s.Corrected + o.Corrected,
		Detected:  s.Detected + o.Detected,
		Bounds:    s.Bounds + o.Bounds,
	}
}

func (s CounterSnapshot) String() string {
	return fmt.Sprintf("checks=%d corrected=%d detected=%d bounds=%d",
		s.Checks, s.Corrected, s.Detected, s.Bounds)
}
