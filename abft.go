package abft

import (
	"abft/internal/coo"
	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/sell"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// Scheme selects a software ECC protection scheme.
type Scheme = core.Scheme

// Protection schemes (see the package documentation of internal/core).
const (
	// None disables protection (the baseline).
	None = core.None
	// SED is single-error-detecting parity.
	SED = core.SED
	// SECDED64 corrects single and detects double bit flips per codeword.
	SECDED64 = core.SECDED64
	// SECDED128 halves the redundancy of SECDED64 by pairing elements.
	SECDED128 = core.SECDED128
	// CRC32C protects multi-element codewords with a 32-bit checksum
	// (Hamming distance 6 at the codeword sizes used here).
	CRC32C = core.CRC32C
)

// Schemes lists every scheme including None.
var Schemes = core.Schemes

// ParseScheme converts a scheme name ("sed", "secded64", ...) to a Scheme.
func ParseScheme(s string) (Scheme, error) { return core.ParseScheme(s) }

// CRCBackend selects the CRC32C implementation.
type CRCBackend = ecc.Backend

// CRC32C backends.
const (
	// CRCHardware uses the platform CRC32 instruction via hash/crc32.
	CRCHardware = ecc.Hardware
	// CRCSoftware uses the pure-Go slicing-by-16 implementation.
	CRCSoftware = ecc.Software
)

// Vector is an ABFT-protected dense float64 vector.
type Vector = core.Vector

// NewVector returns a zero-filled protected vector of length n.
func NewVector(n int, s Scheme) *Vector { return core.NewVector(n, s) }

// VectorFromSlice builds a protected vector holding a copy of data.
func VectorFromSlice(data []float64, s Scheme) *Vector { return core.VectorFromSlice(data, s) }

// ProtectedMatrix is the format-agnostic protected sparse matrix every
// storage format implements; all solvers operate through it. See
// core.ProtectedMatrix for the contract.
type ProtectedMatrix = core.ProtectedMatrix

// Format names a protected sparse storage format.
type Format = op.Format

// Storage formats.
const (
	// FormatCSR is compressed sparse row, the paper's primary format.
	FormatCSR = op.CSR
	// FormatCOO is coordinate (triplet) format.
	FormatCOO = op.COO
	// FormatSELLCS is SELL-C-sigma (sliced ELLPACK).
	FormatSELLCS = op.SELLCS
)

// Formats lists every storage format.
var Formats = op.Formats

// ParseFormat converts a format name ("csr", "coo", "sellcs") to a Format.
func ParseFormat(s string) (Format, error) { return op.ParseFormat(s) }

// FormatOptions configures protection for any storage format.
type FormatOptions = op.Config

// NewProtectedMatrix builds a protected matrix of the given storage
// format from an unprotected CSR source; the result is used through the
// ProtectedMatrix interface and can be handed to any solver.
func NewProtectedMatrix(f Format, src *CSRMatrix, opt FormatOptions) (ProtectedMatrix, error) {
	return op.New(f, src, opt)
}

// ReadMode selects how reads of protected storage treat their
// codewords — the trust ladder of the read path.
type ReadMode = core.ReadMode

// Read modes for ProtectedMatrix.SetReadMode and Vector.Read.
const (
	// ModeExclusive verifies every codeword and commits repairs in
	// place (the default; requires exclusive ownership of the storage).
	ModeExclusive = core.ModeExclusive
	// ModeShared verifies every codeword but never writes the storage,
	// so concurrent readers are safe; repairs apply to the value stream
	// only.
	ModeShared = core.ModeShared
	// ModeUnverified skips codeword decode entirely — payload stream
	// plus mask and bounds checks only, no commits, counters untouched.
	// The fast path for selective reliability's unverified inner phase;
	// anything read this way must stay inside a verified outer
	// iteration that can absorb undetected corruption.
	ModeUnverified = core.ModeUnverified
)

// Matrix is an ABFT-protected CSR sparse matrix.
type Matrix = core.Matrix

// MatrixOptions configures matrix protection.
type MatrixOptions = core.MatrixOptions

// NewMatrix builds a protected copy of a CSR matrix.
func NewMatrix(src *CSRMatrix, opt MatrixOptions) (*Matrix, error) {
	return core.NewMatrix(src, opt)
}

// COOMatrix is an ABFT-protected coordinate-format sparse matrix, the
// second storage format of the paper's lineage.
type COOMatrix = coo.Matrix

// COOOptions configures COO protection.
type COOOptions = coo.Options

// NewCOOMatrix builds a protected coordinate-format copy of a CSR matrix.
func NewCOOMatrix(src *CSRMatrix, opt COOOptions) (*COOMatrix, error) {
	return coo.NewMatrix(src, opt)
}

// SELLMatrix is an ABFT-protected SELL-C-sigma (sliced ELLPACK) sparse
// matrix, the third storage format behind the shared Operator API.
type SELLMatrix = sell.Matrix

// SELLOptions configures SELL-C-sigma protection.
type SELLOptions = sell.Options

// NewSELLMatrix builds a protected SELL-C-sigma copy of a CSR matrix.
func NewSELLMatrix(src *CSRMatrix, opt SELLOptions) (*SELLMatrix, error) {
	return sell.NewMatrix(src, opt)
}

// ShardedOperator is a row-partitioned protected operator: any
// assembled matrix split into bands, each holding a protected local
// matrix in any storage format, with integrity-checked halo exchanges
// between bands and tree-reduced inner products — the in-process
// analogue of the paper's MPI deployment. Like every storage format it
// is a core.Shell over a core.Layout: one check interval and one sweep
// decision per product for all of its bands. It satisfies
// ProtectedMatrix, so every solver and the abftd service run over it
// unchanged.
type ShardedOperator = shard.Operator

// ShardOptions configures a sharded operator: band count, per-shard
// storage format and protection, and the halo-buffer vector scheme.
type ShardOptions = shard.Options

// NewShardedOperator row-partitions src into a sharded protected
// operator.
func NewShardedOperator(src *CSRMatrix, opt ShardOptions) (*ShardedOperator, error) {
	return shard.New(src, opt)
}

// Preconditioner is an ECC-protected preconditioner: its setup product
// lives in codeword-protected storage, is verified on every Apply and
// patrolled by Scrub like a cached matrix. It satisfies
// SolveOptions.Preconditioner.
type Preconditioner = precond.Preconditioner

// PrecondKind names a preconditioner algorithm.
type PrecondKind = precond.Kind

// Preconditioner kinds.
const (
	// PrecondNone disables preconditioning.
	PrecondNone = precond.None
	// PrecondJacobi scales by the protected inverse diagonal.
	PrecondJacobi = precond.Jacobi
	// PrecondBlockJacobi solves codeword-block diagonal systems with
	// protected precomputed inverses.
	PrecondBlockJacobi = precond.BlockJacobi
	// PrecondSGS runs protected symmetric Gauss-Seidel sweeps.
	PrecondSGS = precond.SGS
)

// PrecondKinds lists every preconditioner kind.
var PrecondKinds = precond.Kinds

// ParsePrecond converts a preconditioner name ("jacobi", "bjacobi",
// "sgs") to its kind.
func ParsePrecond(s string) (PrecondKind, error) { return precond.ParseKind(s) }

// PrecondOptions configures a preconditioner build: the protection
// scheme of its setup product, the CRC backend, the Apply worker count
// and an optional band decomposition.
type PrecondOptions = precond.Options

// NewPreconditioner builds an ECC-protected preconditioner of the given
// kind for the operator src describes.
func NewPreconditioner(kind PrecondKind, src *CSRMatrix, opt PrecondOptions) (Preconditioner, error) {
	return precond.New(kind, src, opt)
}

// CSRMatrix is the unprotected compressed-sparse-row substrate.
type CSRMatrix = csr.Matrix

// Entry is a (row, col, value) triplet for CSR construction.
type Entry = csr.Entry

// NewCSR assembles an unprotected CSR matrix from triplets.
func NewCSR(rows, cols int, entries []Entry) (*CSRMatrix, error) {
	return csr.New(rows, cols, entries)
}

// FivePoint assembles the TeaLeaf-style five-point stencil operator.
func FivePoint(nx, ny int, kx, ky []float64, rx, ry float64) *CSRMatrix {
	return csr.FivePoint(nx, ny, kx, ky, rx, ry)
}

// Laplacian2D builds the standard five-point Poisson operator.
func Laplacian2D(nx, ny int) *CSRMatrix { return csr.Laplacian2D(nx, ny) }

// IrregularSPD builds a deterministic irregular symmetric positive
// definite operator with no geometric structure — the general-matrix
// counterpart of the stencil generators, useful for exercising sharded
// and format-agnostic paths.
func IrregularSPD(n int) *CSRMatrix { return csr.IrregularSPD(n) }

// ConvectionDiffusion2D builds the upwind five-point
// convection-diffusion operator (diffusion plus a px*du/dx + py*du/dy
// convection term, px, py >= 0): diagonally dominant and — for nonzero
// convection — nonsymmetric, the reference problem for SolveFGMRES and
// selective reliability.
func ConvectionDiffusion2D(nx, ny int, px, py float64) *CSRMatrix {
	return csr.ConvectionDiffusion2D(nx, ny, px, py)
}

// Counters accumulates integrity-check statistics across structures.
type Counters = core.Counters

// CounterSnapshot is a point-in-time copy of Counters.
type CounterSnapshot = core.CounterSnapshot

// FaultError reports a detected uncorrectable error.
type FaultError = core.FaultError

// BoundsError reports an out-of-range index stopped by a range check.
type BoundsError = core.BoundsError

// Kernels. Every kernel checks (and where possible repairs) the codewords
// it touches; workers below 2 run serially.

// SpMV computes dst = m * x.
func SpMV(dst *Vector, m *Matrix, x *Vector, workers int) error {
	return core.SpMV(dst, m, x, workers)
}

// Dot returns the inner product of a and b.
func Dot(a, b *Vector, workers int) (float64, error) { return core.Dot(a, b, workers) }

// Axpy computes y += alpha*x.
func Axpy(y *Vector, alpha float64, x *Vector, workers int) error {
	return core.Axpy(y, alpha, x, workers)
}

// Waxpby computes dst = alpha*x + beta*y; dst may alias x or y.
func Waxpby(dst *Vector, alpha float64, x *Vector, beta float64, y *Vector, workers int) error {
	return core.Waxpby(dst, alpha, x, beta, y, workers)
}

// Copy transfers src into dst, re-encoding under dst's scheme.
func Copy(dst, src *Vector, workers int) error { return core.Copy(dst, src, workers) }

// Solvers.

// SolveOptions configures an iterative solve.
type SolveOptions = solvers.Options

// SolveResult reports a solve outcome.
type SolveResult = solvers.Result

// SolverKind names a solver algorithm.
type SolverKind = solvers.Kind

// Solver kinds.
const (
	// KindCG is conjugate gradients, the paper's instrumented solver.
	KindCG = solvers.KindCG
	// KindJacobi is the pointwise Jacobi iteration.
	KindJacobi = solvers.KindJacobi
	// KindChebyshev is the Chebyshev semi-iteration.
	KindChebyshev = solvers.KindChebyshev
	// KindPPCG is polynomially preconditioned CG.
	KindPPCG = solvers.KindPPCG
	// KindPCG is explicitly preconditioned CG.
	KindPCG = solvers.KindPCG
	// KindBlockCG is multi-right-hand-side CG.
	KindBlockCG = solvers.KindBlockCG
	// KindFGMRES is flexible restarted GMRES, the nonsymmetric solver
	// and selective-reliability host.
	KindFGMRES = solvers.KindFGMRES
)

// SolverKinds lists every solver algorithm.
var SolverKinds = solvers.Kinds

// ParseSolverKind converts a solver name ("cg", "fgmres", ...) to its
// SolverKind.
func ParseSolverKind(s string) (SolverKind, error) { return solvers.ParseKind(s) }

// Reliability selects how much of a solve runs under verified reads.
type Reliability = solvers.Reliability

// Reliability modes for SolveOptions.Reliability.
const (
	// ReliabilityFull verifies every read of the solve (the default).
	ReliabilityFull = solvers.ReliabilityFull
	// ReliabilitySelective runs FGMRES's inner preconditioner-solve
	// through the unverified no-decode read path while the outer
	// iteration stays verified and checkpointed; inner faults are
	// absorbed as extra iterations, never silent corruption.
	ReliabilitySelective = solvers.ReliabilitySelective
)

// Reliabilities lists every reliability mode.
var Reliabilities = solvers.Reliabilities

// ParseReliability converts a reliability name ("full", "selective")
// to its Reliability.
func ParseReliability(s string) (Reliability, error) { return solvers.ParseReliability(s) }

// RecoveryPolicy names the solver's reaction to a detected
// uncorrectable fault in its own dynamic state (the x, r, p iteration
// vectors): surface it, roll back to a protected checkpoint, or restart
// the recurrence.
type RecoveryPolicy = solvers.RecoveryPolicy

// Recovery policies for SolveOptions.Recovery.
const (
	// RecoveryOff surfaces the fault as an error (the default).
	RecoveryOff = solvers.RecoveryOff
	// RecoveryRollback checkpoints the live solver vectors into
	// codeword-protected storage every K iterations and resumes from
	// the last good checkpoint after a fault.
	RecoveryRollback = solvers.RecoveryRollback
	// RecoveryRestart rewinds a faulted solve to iteration zero.
	RecoveryRestart = solvers.RecoveryRestart
)

// RecoveryOptions configures the checkpoint/rollback recovery
// controller: policy, checkpoint cadence, rollback budget and the
// checkpoint storage's protection scheme.
type RecoveryOptions = solvers.Recovery

// ParseRecovery converts a recovery policy name ("off", "rollback",
// "restart") to its RecoveryPolicy.
func ParseRecovery(s string) (RecoveryPolicy, error) { return solvers.ParseRecovery(s) }

// SolveCG solves m x = b by conjugate gradients, the paper's solver. m is
// a protected matrix of any storage format (CSR, COO, SELL-C-sigma); a
// *Matrix built with NewMatrix works unchanged.
func SolveCG(m ProtectedMatrix, x, b *Vector, opt SolveOptions) (SolveResult, error) {
	return solvers.CG(solvers.MatrixOperator{M: m, Workers: opt.Workers}, x, b, opt)
}

// SolveJacobi solves m x = b with the Jacobi iteration; m is a protected
// matrix of any storage format.
func SolveJacobi(m ProtectedMatrix, x, b *Vector, opt SolveOptions) (SolveResult, error) {
	return solvers.Jacobi(solvers.MatrixOperator{M: m, Workers: opt.Workers}, x, b, opt)
}

// SolveChebyshev solves m x = b with the Chebyshev semi-iteration; m is a
// protected matrix of any storage format.
func SolveChebyshev(m ProtectedMatrix, x, b *Vector, opt SolveOptions) (SolveResult, error) {
	return solvers.Chebyshev(solvers.MatrixOperator{M: m, Workers: opt.Workers}, x, b, opt)
}

// SolvePPCG solves m x = b with polynomially preconditioned CG; m is a
// protected matrix of any storage format.
func SolvePPCG(m ProtectedMatrix, x, b *Vector, opt SolveOptions) (SolveResult, error) {
	return solvers.PPCG(solvers.MatrixOperator{M: m, Workers: opt.Workers}, x, b, opt)
}

// SolvePCG solves m x = b with explicitly preconditioned CG: the
// preconditioner from opt.Preconditioner (for example one built with
// NewPreconditioner), or, when none is set, the same protected Jacobi
// NewPreconditioner builds, derived from the operator's verified
// diagonal and stored in x's scheme.
func SolvePCG(m ProtectedMatrix, x, b *Vector, opt SolveOptions) (SolveResult, error) {
	return solvers.PCG(solvers.MatrixOperator{M: m, Workers: opt.Workers}, x, b, opt)
}

// SolveFGMRES solves m x = b by flexible restarted GMRES — the
// nonsymmetric solver. With opt.Reliability set to ReliabilitySelective
// its inner solve reads through the unverified no-decode path while the
// outer iteration stays verified; opt.Restart sets the cycle length.
func SolveFGMRES(m ProtectedMatrix, x, b *Vector, opt SolveOptions) (SolveResult, error) {
	return solvers.FGMRES(solvers.MatrixOperator{M: m, Workers: opt.Workers}, x, b, opt)
}

// IsFault reports whether err stems from a detected ABFT fault rather than
// a numerical or usage problem.
func IsFault(err error) bool { return solvers.IsFault(err) }
