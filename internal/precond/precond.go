// Package precond implements ECC-protected preconditioners for the
// iterative solvers. Elliott, Hoemmen and Mueller ("Tolerating Silent
// Data Corruption in Opaque Preconditioners") observe that the
// preconditioner is exactly where silent corruption hides in a
// production solve: its setup product is resident state, streamed every
// iteration, and — unlike the system matrix — usually left unprotected.
// This package closes that gap with the repository's embedded-ECC
// discipline: every preconditioner stores its setup product (inverse
// diagonals, inverse diagonal blocks, triangular factors) in
// codeword-protected storage, verifies it on every read, repairs what
// its scheme can correct, and exposes a Scrub patrol so resident
// preconditioners are swept exactly like cached matrices.
//
// Three implementations cover the classic spectrum:
//
//   - Jacobi: a protected inverse-diagonal vector, z = D^-1 r.
//   - Block-Jacobi: protected dense inverses of the 4x4 diagonal blocks,
//     two to a protected-vector block, applied in parallel over
//     vector-block ranges split on every Apply, as Jacobi is.
//   - Symmetric Gauss-Seidel: forward and backward triangular sweeps
//     through a protected CSR copy of the operator,
//     z = (D+U)^-1 D (D+L)^-1 r.
//
// All three satisfy solvers.Options.Preconditioner, so CG, PCG and the
// preconditioned Chebyshev smoother use them unchanged. Jacobi is also
// the solvers' one D^-1: PCG's default, the jacobi solver's and FGMRES's
// inner Richardson's are NewJacobi of the operator's verified diagonal,
// unless the operator keeps a Jacobi resident. abftd does: every cached
// operator builds one with New (NewJacobi of the source's diagonal),
// shared by every solve against it and scrubbed with it.
package precond

import (
	"fmt"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/enum"
)

// Kind names a preconditioner algorithm.
type Kind int

const (
	// None disables preconditioning (plain CG).
	None Kind = iota
	// Jacobi scales by the protected inverse diagonal.
	Jacobi
	// BlockJacobi solves the 4x4 diagonal-block systems with protected
	// precomputed inverses.
	BlockJacobi
	// SGS runs protected symmetric Gauss-Seidel sweeps.
	SGS
)

// Kinds lists every preconditioner in display order.
var Kinds = []Kind{None, Jacobi, BlockJacobi, SGS}

// ProtectingKinds lists the kinds that build a preconditioner (every
// kind but None), for sweeps in benchmarks and conformance tests.
var ProtectingKinds = []Kind{Jacobi, BlockJacobi, SGS}

var kinds = enum.Table[Kind]{Pkg: "precond", What: "preconditioner", Names: [][]string{
	None:        {"none", ""},
	Jacobi:      {"jacobi"},
	BlockJacobi: {"bjacobi", "block-jacobi", "blockjacobi"},
	SGS:         {"sgs", "gauss-seidel"},
}}

func (k Kind) String() string { return kinds.String(k) }

// ParseKind converts a preconditioner name to its Kind.
func ParseKind(s string) (Kind, error) { return kinds.Parse(s) }

// KindNames returns the registered preconditioner names as a
// comma-separated list, for error messages and command-line help.
func KindNames() string { return kinds.List() }

// Options configures a preconditioner build.
type Options struct {
	// Scheme protects the preconditioner's setup product (state vectors
	// and, for SGS, the protected matrix copy).
	Scheme core.Scheme
	// Backend selects the CRC32C implementation.
	Backend ecc.Backend
	// Workers is the Apply goroutine count (Jacobi and block-Jacobi;
	// Gauss-Seidel sweeps are inherently sequential).
	Workers int
}

// Preconditioner is an ECC-protected preconditioner: Apply computes
// z = M^-1 r through codeword-verified state, Scrub patrols that state
// like a cached matrix, and RawState exposes the protected storage to
// fault injectors. Implementations satisfy solvers.Preconditioner.
type Preconditioner interface {
	// Apply computes z = M^-1 r, verifying every preconditioner
	// codeword it streams.
	Apply(z, r *core.Vector) error
	// Rows returns the operator dimension the preconditioner was built
	// for.
	Rows() int
	// Kind names the algorithm.
	Kind() Kind
	// Scrub verifies and repairs every codeword of the preconditioner
	// state, returning the number of corrections and the first
	// uncorrectable error — the patrol contract of
	// core.ProtectedMatrix.Scrub.
	Scrub() (corrected int, err error)
	// SetCounters attaches a statistics accumulator (shared or nil).
	SetCounters(*core.Counters)
	// SetReadMode selects the read discipline for the protected state.
	// ModeShared marks the preconditioner as applied concurrently:
	// Apply then never commits corrections to the protected state,
	// leaving repair to Scrub, which the owner serializes against
	// Apply. ModeUnverified skips state-codeword decode entirely. Set
	// before the preconditioner becomes visible to other goroutines.
	SetReadMode(core.ReadMode)
	// RawState exposes the protected state vectors for fault
	// injection; bits flipped in their raw storage model soft errors
	// striking resident preconditioner memory.
	RawState() []*core.Vector
}

// New builds a preconditioner of the given kind for the operator src
// describes. The setup reads the unprotected assembly source (exactly
// like protected-matrix construction); the product is stored protected
// under opt.Scheme.
func New(kind Kind, src *csr.Matrix, opt Options) (Preconditioner, error) {
	if src.Rows() != src.Cols32() {
		return nil, fmt.Errorf("precond: matrix is %dx%d; preconditioners need a square operator",
			src.Rows(), src.Cols32())
	}
	switch kind {
	case Jacobi:
		return NewJacobi(diagonal(src), opt)
	case BlockJacobi:
		return newBlockJacobi(src, opt)
	case SGS:
		return newSGS(src, opt)
	case None:
		return nil, fmt.Errorf("precond: kind none builds no preconditioner")
	default:
		return nil, fmt.Errorf("precond: unknown kind %v", kind)
	}
}

// For builds a preconditioner for an already-built protected operator
// m assembled from src. It is New: no preconditioner depends on how m
// is stored or distributed, so m is not consulted.
func For(kind Kind, m core.ProtectedMatrix, src *csr.Matrix, opt Options) (Preconditioner, error) {
	return New(kind, src, opt)
}

// diagonal returns the main diagonal of src.
func diagonal(src *csr.Matrix) []float64 {
	d := make([]float64, src.Rows())
	src.Diagonal(d)
	return d
}

// invertDiagonal returns the reciprocals of diag, rejecting a zero.
func invertDiagonal(diag []float64) ([]float64, error) {
	inv := make([]float64, len(diag))
	for i, x := range diag {
		if x == 0 {
			return nil, fmt.Errorf("precond: zero diagonal at row %d", i)
		}
		inv[i] = 1 / x
	}
	return inv, nil
}

// checkLengths rejects an Apply whose z or r is not rows long.
func checkLengths(k Kind, rows int, z, r *core.Vector) error {
	if z.Len() != rows || r.Len() != rows {
		return fmt.Errorf("precond: %v Apply length mismatch: z %d, r %d, rows %d",
			k, z.Len(), r.Len(), rows)
	}
	return nil
}

// chunk is how many vector blocks of r one Read covers in Jacobi's and
// block-Jacobi's Apply: a stack buffer's worth, so a range's checks are
// counted once per chunk rather than once per block.
const chunk = 32

// inverse is the state Jacobi and block-Jacobi share: one protected
// vector of precomputed inverses, the worker count each Apply splits
// its vector blocks across, and the read mode of that vector.
type inverse struct {
	rows    int
	inv     *core.Vector
	workers int
	mode    core.ReadMode
}

// newInverse stores the inverses inv for a rows-row operator protected
// under opt.Scheme.
func newInverse(rows int, inv []float64, opt Options) inverse {
	v := core.VectorFromSlice(inv, opt.Scheme)
	v.SetCRCBackend(opt.Backend)
	return inverse{rows: rows, inv: v, workers: opt.Workers}
}

// Rows returns the operator dimension.
func (p *inverse) Rows() int { return p.rows }

// Scrub patrols the protected inverses.
func (p *inverse) Scrub() (int, error) { return p.inv.CheckAll() }

// SetCounters attaches a statistics accumulator to the state vector.
func (p *inverse) SetCounters(c *core.Counters) { p.inv.SetCounters(c) }

// SetReadMode selects the read discipline for the protected state.
func (p *inverse) SetReadMode(mode core.ReadMode) { p.mode = mode }

// RawState exposes the protected inverses for fault injection.
func (p *inverse) RawState() []*core.Vector { return []*core.Vector{p.inv} }
