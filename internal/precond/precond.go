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
//     two to a protected-vector block, applied band-parallel; over a
//     sharded operator the bands follow the shard decomposition.
//   - Symmetric Gauss-Seidel: forward and backward triangular sweeps
//     through a protected CSR copy of the operator,
//     z = (D+U)^-1 D (D+L)^-1 r.
//
// All three satisfy solvers.Options.Preconditioner, so CG, PCG and the
// preconditioned Chebyshev smoother use them unchanged.
package precond

import (
	"fmt"
	"strings"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
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

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Jacobi:
		return "jacobi"
	case BlockJacobi:
		return "bjacobi"
	case SGS:
		return "sgs"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a preconditioner name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "none", "":
		return None, nil
	case "jacobi":
		return Jacobi, nil
	case "bjacobi", "block-jacobi", "blockjacobi":
		return BlockJacobi, nil
	case "sgs", "gauss-seidel":
		return SGS, nil
	default:
		return None, fmt.Errorf("precond: unknown preconditioner %q (choices: %s)", s, KindNames())
	}
}

// KindNames returns the registered preconditioner names as a
// comma-separated list, for error messages and command-line help.
func KindNames() string {
	names := make([]string, len(Kinds))
	for i, k := range Kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

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
	// Bands, when set, are the block-aligned row ranges block-Jacobi
	// applies band-parallel — typically a sharded operator's
	// decomposition (shard.Operator.BandRanges), so the preconditioner
	// runs per-band on goroutines matching the shard layout. Empty
	// bands derive from Workers.
	Bands [][2]int
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
		return newJacobi(src, opt)
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

// BandedOperator is the capability a sharded operator exposes so
// block-Jacobi can align its bands to the shard decomposition.
type BandedOperator interface {
	BandRanges() [][2]int
}

// For builds a preconditioner for an already-built protected operator
// m assembled from src: block-Jacobi inherits a sharded operator's band
// decomposition so its per-band applications run on goroutines matching
// the shard layout.
func For(kind Kind, m core.ProtectedMatrix, src *csr.Matrix, opt Options) (Preconditioner, error) {
	if kind == BlockJacobi && len(opt.Bands) == 0 {
		if b, ok := m.(BandedOperator); ok {
			opt.Bands = b.BandRanges()
		}
	}
	return New(kind, src, opt)
}

// invertDiagonal extracts and inverts the main diagonal of src.
func invertDiagonal(src *csr.Matrix) ([]float64, error) {
	d := make([]float64, src.Rows())
	src.Diagonal(d)
	for i, x := range d {
		if x == 0 {
			return nil, fmt.Errorf("precond: zero diagonal at row %d", i)
		}
		d[i] = 1 / x
	}
	return d, nil
}

// chunk is how many vector blocks of r one Read covers in Jacobi's and
// block-Jacobi's Apply: a stack buffer's worth, so a band's checks are
// counted once per chunk rather than once per block.
const chunk = 32
