// Package service implements abftd, the resident fault-tolerant solve
// service: an HTTP/JSON API over the repository's protected-operator
// layer. Solve requests are queued onto a bounded worker pool; the
// protected matrices they operate on live in a content-addressed LRU
// cache shared across requests, so the ECC encode cost the paper
// analyses per solver run is paid once per distinct operator and
// amortised over all traffic against it. A background scrub daemon
// patrols the cached operators on a configurable interval — the paper's
// check-interval knob applied to a fleet of resident matrices — and
// evicts any operator whose corruption its scheme can detect but not
// correct.
package service

import (
	"fmt"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/mm"
	"abft/internal/obs"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// Triplet is one explicit (row, col, value) entry of a raw CSR matrix
// specification.
type Triplet struct {
	Row int     `json:"row"`
	Col int     `json:"col"`
	Val float64 `json:"val"`
}

// GridSpec names a generated five-point Laplacian operator (the TeaLeaf
// stencil family): the canonical SPD test problem, specified by its
// grid dimensions alone.
type GridSpec struct {
	NX int `json:"nx"`
	NY int `json:"ny"`
}

// MatrixSpec describes the operator of a solve request. Exactly one
// source must be set.
type MatrixSpec struct {
	// Grid generates a five-point Laplacian.
	Grid *GridSpec `json:"grid,omitempty"`
	// Rows/Cols/Entries assemble a matrix from raw triplets.
	Rows    int       `json:"rows,omitempty"`
	Cols    int       `json:"cols,omitempty"`
	Entries []Triplet `json:"entries,omitempty"`
	// MatrixMarket holds an inline MatrixMarket coordinate document
	// (general or symmetric), the interchange path for real collections.
	MatrixMarket string `json:"matrix_market,omitempty"`
	// Operator addresses a source the service already holds by the
	// handle an earlier result echoed (SolveResult.Operator), sparing the
	// client the document. A handle the service no longer knows fails
	// with ErrUnknownOperator (HTTP 404): resend the document.
	Operator string `json:"operator,omitempty"`
}

// check enforces the exactly-one-source rule. inline reports a
// matrix_market document held outside the spec (an HTTP request's
// still-quoted value).
func (s *MatrixSpec) check(inline []byte) error {
	sources := 0
	if s.Grid != nil {
		sources++
	}
	if len(s.Entries) > 0 {
		sources++
	}
	if s.MatrixMarket != "" || inline != nil {
		sources++
	}
	if s.Operator != "" {
		sources++
	}
	if sources != 1 {
		return fmt.Errorf("matrix spec needs exactly one of grid, entries, matrix_market, operator (got %d)", sources)
	}
	return nil
}

// Build assembles the unprotected CSR matrix the spec describes. An
// operator handle describes none: it fails with ErrUnknownOperator.
func (s *MatrixSpec) Build() (*csr.Matrix, error) {
	if err := s.check(nil); err != nil {
		return nil, err
	}
	switch {
	case s.Operator != "":
		return nil, unknownOperator(s.Operator)
	case s.Grid != nil:
		if s.Grid.NX < 2 || s.Grid.NY < 2 {
			return nil, fmt.Errorf("grid %dx%d too small (need >= 2x2)", s.Grid.NX, s.Grid.NY)
		}
		// 5·nx·ny <= maxGridEntries, without the product overflowing.
		if s.Grid.NX > maxGridEntries/5/s.Grid.NY {
			return nil, fmt.Errorf("grid %dx%d generates more than %d entries, the most a request body can list", s.Grid.NX, s.Grid.NY, maxGridEntries)
		}
		return csr.Laplacian2D(s.Grid.NX, s.Grid.NY), nil
	case s.MatrixMarket != "":
		return mm.ReadStringLimit(s.MatrixMarket, maxDim)
	default:
		if s.Rows > maxDim || s.Cols > maxDim {
			return nil, fmt.Errorf("matrix %dx%d is over the limit of %d rows or columns", s.Rows, s.Cols, maxDim)
		}
		entries := make([]csr.Entry, len(s.Entries))
		for i, t := range s.Entries {
			if t.Row >= maxDim || t.Col >= maxDim {
				return nil, fmt.Errorf("entry %d at (%d,%d) is past the limit of %d rows or columns", i, t.Row, t.Col, maxDim)
			}
			entries[i] = csr.Entry{Row: t.Row, Col: t.Col, Val: t.Val}
		}
		if s.Rows < 1 || s.Cols < 1 {
			return nil, fmt.Errorf("entries need rows and cols of at least 1 (got %dx%d)", s.Rows, s.Cols)
		}
		return csr.New(s.Rows, s.Cols, entries)
	}
}

// A request may declare no more than a body of maxBody bytes could
// carry, checked before anything of the declared size is allocated:
// a generated grid no more entries than the longest inline MatrixMarket
// document could list ("1 1 1\n" is the shortest entry line), and a
// size line or an entries list no more rows or columns than an inline b
// could hold ("0," is the shortest element).
const (
	maxGridEntries = maxBody / 6
	maxDim         = maxBody / 2
)

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Matrix describes the operator.
	Matrix MatrixSpec `json:"matrix"`
	// Format selects the protected storage format ("csr", "coo",
	// "sellcs"; default csr).
	Format string `json:"format,omitempty"`
	// Scheme protects the matrix element stream (default none).
	Scheme string `json:"scheme,omitempty"`
	// RowPtrScheme protects the CSR row-pointer vector (CSR only;
	// default none).
	RowPtrScheme string `json:"rowptr_scheme,omitempty"`
	// VectorScheme protects the solve's dense vectors (default none).
	VectorScheme string `json:"vector_scheme,omitempty"`
	// Sigma is the SELL-C-sigma sorting window (sellcs only).
	Sigma int `json:"sigma,omitempty"`
	// Shards row-partitions the operator into this many bands, each
	// holding its own protected local matrix, with integrity-checked
	// halo exchanges between them (0 or 1 solves unsharded). The count
	// is clamped to the server's MaxShards and to the operator size.
	Shards int `json:"shards,omitempty"`
	// ShardFormat selects the storage format of the shard-local
	// matrices when Shards > 1 (default: Format).
	ShardFormat string `json:"shard_format,omitempty"`
	// Solver picks the algorithm ("cg", "jacobi", "chebyshev", "ppcg",
	// "pcg"; default cg).
	Solver string `json:"solver,omitempty"`
	// Precond selects an ECC-protected preconditioner ("none",
	// "jacobi", "bjacobi", "sgs"). Its setup product is cached and
	// scrubbed alongside the operator; "pcg" with no preconditioner
	// defaults to jacobi. The preconditioner state is protected by
	// Scheme, like the matrix it derives from.
	Precond string `json:"precond,omitempty"`
	// Recovery selects the solver's reaction to a detected
	// uncorrectable fault in its own dynamic state ("off", "rollback",
	// "restart"; default off): rollback checkpoints the live iteration
	// vectors into codeword-protected storage and resumes from the
	// last good checkpoint instead of failing the job. Any policy but
	// off also makes the service retry the job once against a freshly
	// built operator when the fault survives solver-level recovery.
	Recovery string `json:"recovery,omitempty"`
	// RecoveryInterval fixes the rollback checkpoint cadence in
	// iterations (0 adapts it to the observed fault rate).
	RecoveryInterval int `json:"recovery_interval,omitempty"`
	// Reliability selects how much of the solve runs under verified
	// reads ("full" default, "selective"). Selective runs the inner
	// preconditioner-solve of a flexible method through the unverified
	// no-decode read path while the outer iteration stays verified; it
	// requires the fgmres solver with no explicit preconditioner.
	Reliability string `json:"reliability,omitempty"`
	// Restart is the fgmres restart length (0 selects the solver
	// default; other solvers ignore it).
	Restart int `json:"restart,omitempty"`
	// B is the right-hand side; omitted means all ones.
	B []float64 `json:"b,omitempty"`
	// RHSBatch submits up to 64 right-hand sides as one batched solve
	// (mutually exclusive with B): the CG family solves them through
	// BlockCG — one verified SpMM sweep per iteration shared by every
	// column — and the result carries XBatch/Columns instead of X.
	RHSBatch [][]float64 `json:"rhs_batch,omitempty"`
	// Tol is the convergence tolerance (default 1e-10).
	Tol float64 `json:"tol,omitempty"`
	// RelativeTol measures Tol against the initial residual norm.
	RelativeTol bool `json:"relative_tol,omitempty"`
	// MaxIter bounds the iteration count (default 10000).
	MaxIter int `json:"max_iter,omitempty"`
	// Workers is the per-job kernel goroutine count (clamped by the
	// server's MaxSolveWorkers).
	Workers int `json:"workers,omitempty"`
	// Wait blocks the POST until the job finishes (equivalent to the
	// ?wait=1 query parameter).
	Wait bool `json:"wait,omitempty"`
}

// solveParams is a SolveRequest with every name resolved through the
// registries, computed once at admission so bad requests fail with 400
// before touching the queue.
type solveParams struct {
	format  op.Format
	scheme  core.Scheme
	rowptr  core.Scheme
	vectors core.Scheme
	sigma   int
	// shards is the canonical band count: 0 for an unsharded solve
	// (requests for 1 shard resolve to 0, since a single band is the
	// unsharded operator), clamped against the matrix size at admission.
	shards int
	// shardFormat is the requested shard-local storage format; it
	// becomes the effective format in finalizeShards if the solve is
	// still sharded after clamping against the matrix size.
	shardFormat op.Format
	kind        solvers.Kind
	// precond is the resolved preconditioner kind; its setup product is
	// built, cached and scrubbed with the operator.
	precond precond.Kind
	// reliability is the resolved read discipline of the solve phases
	// (selective admits only fgmres with no explicit preconditioner).
	reliability solvers.Reliability
	opt         solvers.Options
}

// finalizeShards completes shard resolution once the matrix dimensions
// are known: the band count clamps to what the operator can actually be
// cut into, the shard format becomes the effective format only if the
// solve is still sharded, and knobs the effective format ignores are
// dropped so they cannot split the operator-cache key between
// semantically identical operators.
func (p *solveParams) finalizeShards(rows int) {
	if p.shards > 1 {
		if p.shards = shard.Clamp(rows, p.shards); p.shards == 1 {
			p.shards = 0
		}
	}
	if p.shards > 1 {
		p.format = p.shardFormat
	} else {
		p.shardFormat = p.format
	}
	if p.format != op.CSR {
		p.rowptr = core.None
	}
	if p.format != op.SELLCS {
		p.sigma = 0
	}
}

// batchKind reports whether the solver amortises a batch through one
// shared SpMM sweep per iteration (solvers.SolveBatch's BlockCG path) —
// the kinds worth coalescing queued singles into.
func batchKind(k solvers.Kind) bool {
	return k == solvers.KindCG || k == solvers.KindPCG || k == solvers.KindBlockCG
}

// coalesceKey extends the operator cache key with every option that
// must match for two queued jobs to legally share one batched solve:
// solver and preconditioner, the dense-vector scheme (the operator key
// includes it only when sharded), the convergence knobs, the recovery
// policy, and Workers — core.Dot is deterministic per worker count but
// not across counts, so coalescing across worker counts would break
// bit-parity with the jobs' independent solves.
func coalesceKey(opKey string, p solveParams) string {
	return fmt.Sprintf("%s|batch|%v|%v|%v|%g|%t|%d|%d|%v|%d|%v",
		opKey, p.kind, p.precond, p.vectors,
		p.opt.Tol, p.opt.RelativeTol, p.opt.MaxIter, p.opt.Workers,
		p.opt.Recovery.Policy, p.opt.Recovery.Interval, p.reliability)
}

// resolve validates the symbolic fields of a request against the format,
// scheme and solver registries.
func (r *SolveRequest) resolve(cfg Config) (solveParams, error) {
	var p solveParams
	var err error
	if p.format, err = op.ParseFormat(r.Format); err != nil {
		return p, err
	}
	if r.Shards < 0 {
		return p, fmt.Errorf("shards %d must be >= 0", r.Shards)
	}
	if p.shards = r.Shards; p.shards > cfg.MaxShards {
		p.shards = cfg.MaxShards
	}
	if p.shards == 1 {
		p.shards = 0 // one band is the unsharded operator
	}
	// The shard-local matrices are the operator, so their format is the
	// effective format of a sharded request — but only once the count
	// has been clamped against the matrix size (finalizeShards).
	p.shardFormat = p.format
	if p.shards > 1 && r.ShardFormat != "" {
		if p.shardFormat, err = op.ParseFormat(r.ShardFormat); err != nil {
			return p, err
		}
	}
	if p.scheme, err = core.ParseScheme(r.Scheme); err != nil {
		return p, err
	}
	if p.rowptr, err = core.ParseScheme(r.RowPtrScheme); err != nil {
		return p, err
	}
	if p.vectors, err = core.ParseScheme(r.VectorScheme); err != nil {
		return p, err
	}
	if p.kind, err = solvers.ParseKind(r.Solver); err != nil {
		return p, err
	}
	if p.precond, err = precond.ParseKind(r.Precond); err != nil {
		return p, err
	}
	if p.kind == solvers.KindPCG && p.precond == precond.None {
		// "pcg" always preconditions; give it the protected default so
		// the cached state is covered by the scrub lifecycle too.
		p.precond = precond.Jacobi
	}
	if p.precond != precond.None &&
		(p.kind == solvers.KindJacobi || p.kind == solvers.KindPPCG) {
		// Reject rather than silently building, caching and scrubbing a
		// preconditioner the solver would never apply (jacobi derives
		// its own; ppcg's polynomial is its preconditioner).
		return p, fmt.Errorf("solver %v does not apply a preconditioner (use cg, pcg or chebyshev)", p.kind)
	}
	if p.reliability, err = solvers.ParseReliability(r.Reliability); err != nil {
		return p, err
	}
	if p.reliability == solvers.ReliabilitySelective {
		// Selective reliability is defined by its reliable outer
		// iteration: only the flexible solver's internal inner solve may
		// run unverified, and an explicit preconditioner would replace
		// exactly that phase with a verified application — reject the
		// combinations that could not actually shed any verification.
		if p.kind != solvers.KindFGMRES {
			return p, fmt.Errorf("selective reliability requires the fgmres solver (got %v)", p.kind)
		}
		if p.precond != precond.None {
			return p, fmt.Errorf("selective reliability requires precond none (got %v): an explicit preconditioner replaces the unverified inner solve", p.precond)
		}
	}
	if r.Sigma < 0 {
		return p, fmt.Errorf("sigma %d must be >= 0", r.Sigma)
	}
	p.sigma = r.Sigma
	workers := r.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.MaxSolveWorkers {
		workers = cfg.MaxSolveWorkers
	}
	recovery, err := solvers.ParseRecovery(r.Recovery)
	if err != nil {
		return p, err
	}
	if r.Restart < 0 {
		return p, fmt.Errorf("restart %d must be >= 0", r.Restart)
	}
	p.opt = solvers.Options{
		Tol:         r.Tol,
		RelativeTol: r.RelativeTol,
		MaxIter:     r.MaxIter,
		Workers:     workers,
		Restart:     r.Restart,
		Reliability: p.reliability,
		Recovery: solvers.Recovery{
			Policy:   recovery,
			Interval: r.RecoveryInterval,
		},
	}
	// Admission-time validation: a request that would iterate forever
	// or not at all fails with 400 before touching the queue.
	if err := p.opt.Validate(); err != nil {
		return p, err
	}
	return p, nil
}

// maxBatchWidth bounds the right-hand sides of one batched solve, both
// for an explicit rhs_batch request and for the admission coalescer:
// the widest bucket of the abftd_batch_width histogram.
const maxBatchWidth = 64

// BatchColumn reports one right-hand side of a batched solve.
type BatchColumn struct {
	// Iterations is the iteration the column converged at (the batch's
	// iteration count when it did not).
	Iterations int `json:"iterations"`
	// ResidualNorm is the column's final residual L2 norm.
	ResidualNorm float64 `json:"residual_norm"`
	// Converged reports whether the column met the tolerance.
	Converged bool `json:"converged"`
}

// SolveResult reports a finished solve.
type SolveResult struct {
	// X is the solution vector.
	X []float64 `json:"x"`
	// XBatch holds the per-right-hand-side solutions of an rhs_batch
	// solve (X is empty then), and Columns their per-column outcomes.
	XBatch  [][]float64   `json:"x_batch,omitempty"`
	Columns []BatchColumn `json:"columns,omitempty"`
	// BatchWidth is the number of right-hand sides the executing solve
	// carried (coalesced neighbours included); 1 or absent means the job
	// ran alone. Coalesced reports that this job shared its solve with
	// other queued jobs against the same operator and options — its
	// Rollbacks/RecomputedIterations (and Retried) then describe that
	// shared solve, not this job alone.
	BatchWidth int  `json:"batch_width,omitempty"`
	Coalesced  bool `json:"coalesced,omitempty"`
	// Iterations is the solver iteration count.
	Iterations int `json:"iterations"`
	// ResidualNorm is the final residual L2 norm.
	ResidualNorm float64 `json:"residual_norm"`
	// Converged reports whether the tolerance was met.
	Converged bool `json:"converged"`
	// CacheHit reports whether the protected operator was already
	// resident (the encode cost was amortised away).
	CacheHit bool `json:"cache_hit"`
	// Operator is the digest of the request's operator source as sent:
	// the handle a later request may pass as matrix.operator instead of
	// the document, for as long as an operator built from it is resident.
	Operator string `json:"operator"`
	// Rollbacks counts the solver's checkpoint rollbacks past detected
	// uncorrectable faults in its dynamic state, and
	// RecomputedIterations the iterations re-run because of them
	// (non-zero only with a recovery policy).
	Rollbacks            int `json:"rollbacks,omitempty"`
	RecomputedIterations int `json:"recomputed_iterations,omitempty"`
	// Retried reports that the job's first solve failed on a fault
	// solver-level recovery could not clear and the service retried it
	// against a freshly built operator.
	Retried bool `json:"retried,omitempty"`
	// Options consolidates every knob the admission resolver settled on
	// for the executing solve — the requested values after parsing,
	// defaulting, clamping and autotuning — in one block: the resolved
	// read discipline is Options.Reliability, the admission-time
	// autotuning decision Options.Autotune.
	Options *ResolvedOptions `json:"options,omitempty"`
	// Checks/Corrected/Detected/Bounds are the ABFT counter deltas this
	// job contributed.
	Checks    uint64 `json:"checks"`
	Corrected uint64 `json:"corrected"`
	Detected  uint64 `json:"detected"`
	Bounds    uint64 `json:"bounds"`
}

// ResolvedOptions is the result's consolidated solver-knob echo: every
// symbolic request field after admission-time resolution, so a client
// can read what actually executed — defaulting, clamping and
// autotuning included — from one place instead of re-deriving it from
// scattered top-level fields.
type ResolvedOptions struct {
	// Solver is the executed algorithm ("cg", "fgmres", ...).
	Solver string `json:"solver"`
	// Precond is the resolved preconditioner kind ("none" omitted).
	Precond string `json:"precond,omitempty"`
	// Format is the effective protected storage format (the shard-local
	// format when the solve is sharded).
	Format string `json:"format"`
	// Scheme/RowPtrScheme/VectorScheme are the resolved protection
	// schemes ("none" values omitted).
	Scheme       string `json:"scheme,omitempty"`
	RowPtrScheme string `json:"rowptr_scheme,omitempty"`
	VectorScheme string `json:"vector_scheme,omitempty"`
	// Shards is the post-clamp band count (omitted when unsharded).
	Shards int `json:"shards,omitempty"`
	// Recovery is the resolved recovery policy, RecoveryInterval the
	// fixed checkpoint cadence (0 adapts).
	Recovery         string `json:"recovery"`
	RecoveryInterval int    `json:"recovery_interval,omitempty"`
	// Reliability is the resolved read discipline ("full", "selective").
	Reliability string `json:"reliability"`
	// Restart is the requested fgmres restart length (0 means the
	// solver default; only meaningful for fgmres).
	Restart int `json:"restart,omitempty"`
	// Workers is the per-job kernel goroutine count after clamping.
	Workers int `json:"workers"`
	// Autotune records the knobs the service auto-selected (nil when
	// every tunable knob was pinned).
	Autotune *AutotuneDecision `json:"autotune,omitempty"`
}

// JobState names a job's position in its lifecycle.
type JobState string

// Job lifecycle states.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// JobStatus is the body of GET /v1/jobs/{id} and of a waited solve.
type JobStatus struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Submitted/Started/Finished timestamp the job's lifecycle edges:
	// Started - Submitted is the queue wait, Finished - Started the
	// execution time, without scraping /metrics. Started and Finished
	// are nil until the job reaches those edges.
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// Trace summarises the job's stage spans (seconds per stage plus
	// span and residual counts); the full span list, residual
	// trajectory and fault counters are at GET /v1/jobs/{id}/trace.
	Trace *obs.TraceSummary `json:"trace,omitempty"`
	// Result is set once State is done.
	Result *SolveResult `json:"result,omitempty"`
	// Error is set once State is failed. Fault is true when the failure
	// was a detected ABFT fault rather than a usage or numerical
	// problem.
	Error string `json:"error,omitempty"`
	Fault bool   `json:"fault,omitempty"`
}

// TraceSnapshot is the body of GET /v1/jobs/{id}/trace: the job's stage
// spans, fault counters and per-iteration residual trajectory.
type TraceSnapshot = obs.TraceSnapshot

// TraceSummary is the condensed per-stage timing embedded in JobStatus.
type TraceSummary = obs.TraceSummary

// Event is one fault-journal entry of GET /v1/events.
type Event = obs.Event
