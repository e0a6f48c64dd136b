package main

import (
	"fmt"
	"math/rand"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/par"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// minIterations is the shape guard on every solve: a solve that stops
// earlier than this was handed a degenerate right-hand side (the
// all-ones eigenvector converges in one iteration) and measured nothing.
const minIterations = 8

// libTol is the relative tolerance of both library workloads.
const libTol = 1e-8

// workers is the kernel worker count of every solve: the process has one
// processor (main.go), so more would only add dispatches.
const workers = 1

// libSpec is what differs between the two library-path workloads.
type libSpec struct {
	nx     int
	scheme core.Scheme // matrix elements and every vector
	// build protects src and, for a preconditioned workload, builds the
	// preconditioner over it.
	build func(src *csr.Matrix, tr *tracer) (protectedOp, solvers.Preconditioner, error)
	solve func(a solvers.Operator, x, b *core.Vector, opt solvers.Options) (solvers.Result, error)
	// recovery is the workload's checkpoint policy.
	recovery solvers.Recovery
	// opMetric names the operator's per-row apply metric and solver
	// prefixes the workload's solvers.* metrics.
	opMetric, solver string
}

// libInstance is one set-up of a library workload: a protected operator
// with its counters, and one right-hand side for the whole run, so that
// every repetition does identical work.
type libInstance struct {
	spec     libSpec
	plain    *csr.Matrix // the benchmark's own copy: reference and residual check
	b        []float64
	m        protectedOp
	pre      solvers.Preconditioner
	counters *core.Counters
	bv, xv   *core.Vector // the encoded operands, live from set-up on
	xRef, x  []float64
	scratch  *refScratch
}

// prepareLib returns the set-up of a library workload. Set-up is what a
// caller does before the first solve: generate the operator, protect it
// (and build the preconditioner), encode b and a zero x.
func prepareLib(spec libSpec) func(seed int64) (setupFunc, error) {
	return func(seed int64) (setupFunc, error) {
		plain := csr.Laplacian2D(spec.nx, spec.nx)
		n := plain.Rows()
		b := make([]float64, n)
		rhs(rand.New(rand.NewSource(seed)), b)
		inst := libInstance{
			spec: spec, plain: plain, b: b,
			xRef: make([]float64, n), x: make([]float64, n), scratch: newRefScratch(n),
		}
		return func(tr *tracer) (instance, error) {
			in := inst
			src := csr.Laplacian2D(spec.nx, spec.nx)
			m, pre, err := spec.build(src, tr)
			if err != nil {
				return nil, err
			}
			in.m, in.pre = m, pre
			in.counters = &core.Counters{}
			m.SetCounters(in.counters)
			in.bv = core.VectorFromSlice(b, spec.scheme)
			in.xv = core.NewVector(n, spec.scheme)
			return &in, nil
		}, nil
	}
}

func (in *libInstance) close(*tracer) {}

func (in *libInstance) options() solvers.Options {
	return solvers.Options{
		Tol: libTol, RelativeTol: true, Workers: workers,
		Preconditioner: in.pre, Recovery: in.spec.recovery,
	}
}

// solveOnce runs the system under test once, from the plain right-hand
// side to the plain solution in in.x: encode b, zero x, iterate, decode
// x. With a non-nil sp the operator and preconditioner are wrapped and
// sp receives their spans. It returns the solver's result, the duration of
// the solver call alone and the duration of the whole operation.
func (in *libInstance) solveOnce(sp *spans) (res solvers.Result, solve, total time.Duration, err error) {
	var a solvers.Operator = solvers.MatrixOperator{M: in.m, Workers: workers}
	opt := in.options()
	if sp != nil {
		var unhook func()
		a, unhook = traceOperator(in.m, workers, sp)
		defer unhook()
		if in.pre != nil {
			opt.Preconditioner = tracedPre{inner: in.pre, sp: sp}
		}
	}
	n := len(in.b)
	start := time.Now()
	in.bv = core.VectorFromSlice(in.b, in.spec.scheme)
	in.xv = core.NewVector(n, in.spec.scheme)
	in.bv.SetCounters(in.counters)
	in.xv.SetCounters(in.counters)
	solveStart := time.Now()
	res, err = in.spec.solve(a, in.xv, in.bv, opt)
	solve = time.Since(solveStart)
	if err == nil {
		err = in.xv.CopyTo(in.x)
	}
	return res, solve, time.Since(start), err
}

func (in *libInstance) op(tr *tracer) opResult {
	n := len(in.b)
	start := time.Now()
	_, refOK := refCG(in.plain, in.b, in.xRef, in.scratch, libTol, n)
	ref := time.Since(start)

	var sp *spans
	if tr != nil {
		sp = &spans{}
	}
	checks := in.counters.Checks()
	_, dispatches := par.Stats()
	res, solve, sut, err := in.solveOnce(sp)
	r := opResult{ref: ref, sut: sut, attempted: 1}
	if err != nil || !refOK || !res.Converged || res.Iterations < minIterations ||
		!residualOK(in.plain, in.b, in.x, libTol) {
		r.failed = 1
		return r
	}
	if tr != nil {
		_, after := par.Stats()
		in.record(tr, sp, solve, res.Iterations, in.counters.Checks()-checks, after-dispatches)
	}
	return r
}

// record turns one traced solve's spans and counter deltas into samples.
func (in *libInstance) record(tr *tracer, sp *spans, solve time.Duration, iters int, checks, dispatches uint64) {
	rows := float64(len(in.b))
	s := in.spec.solver
	tr.add(in.spec.opMetric, float64(sp.apply)/float64(sp.applies)/rows)
	tr.add("solvers."+s+"_iters", float64(iters))
	tr.add("solvers."+s+"_iter_us", float64(solve)/float64(iters)/1e3)
	tr.add("solvers."+s+"_apply_share", float64(sp.apply)/float64(solve))
	tr.add("solvers."+s+"_self_share", float64(solve-sp.apply-sp.dot-sp.pre)/float64(solve))
	tr.add("core."+s+"_checks_per_solve", float64(checks))
	tr.add("par."+s+"_dispatches_per_solve", float64(dispatches))
	if sp.pres > 0 {
		tr.add("solvers."+s+"_precond_share", float64(sp.pre)/float64(solve))
		tr.add("precond.apply_ns_row", float64(sp.pre)/float64(sp.pres)/rows)
	}
	if sp.dots > 0 { // only a sharded operator has its own Dot and phases
		tr.add("solvers."+s+"_dot_share", float64(sp.dot)/float64(solve))
		tr.add("shard.dot_ns_row", float64(sp.dot)/float64(sp.dots)/rows)
		tr.add("shard.scatter_share", float64(sp.phase[shard.PhaseScatter])/float64(sp.apply))
		tr.add("shard.exchange_share", float64(sp.phase[shard.PhaseExchange])/float64(sp.apply))
		tr.add("shard.local_share", float64(sp.phase[shard.PhaseLocal])/float64(sp.apply))
	}
	if in.spec.recovery.Policy == solvers.RecoveryOff {
		return
	}
	// The same solve with checkpoints off, same operands: what the
	// rollback policy's snapshot writes cost.
	opt := in.options()
	opt.Recovery = solvers.Recovery{}
	bv := core.VectorFromSlice(in.b, in.spec.scheme)
	xv := core.NewVector(len(in.b), in.spec.scheme)
	start := time.Now()
	if _, err := in.spec.solve(solvers.MatrixOperator{M: in.m, Workers: workers}, xv, bv, opt); err == nil {
		tr.add(ckptOnMS, millis(solve))
		tr.add(ckptOffMS, millis(time.Since(start)))
	}
}

// ckptOnMS and ckptOffMS hold the paired solver-call times behind
// solvers.checkpoint_share; they are not metrics themselves.
const ckptOnMS, ckptOffMS = "_checkpoint_on_ms", "_checkpoint_off_ms"

// cgCSR is the library path in the paper's own configuration: CSR with
// SECDED64 on elements, row pointers and all vectors, plain CG.
var cgCSR = libSpec{
	nx: 96, scheme: core.SECDED64,
	build: func(src *csr.Matrix, tr *tracer) (protectedOp, solvers.Preconditioner, error) {
		start := time.Now()
		m, err := op.New(op.CSR, src, op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64})
		if err != nil {
			return nil, nil, err
		}
		tr.add("core.encode_ns_nnz", float64(time.Since(start))/float64(src.NNZ()))
		return m.(protectedOp), nil, nil
	},
	solve:    solvers.CG,
	opMetric: "core.spmv_ns_row", solver: "cg",
}

// pcgShard is everything cgCSR bypasses: two shards of SELL-C-sigma
// under CRC32C with halo exchange, a block-Jacobi preconditioner over
// the band ranges, and rollback recovery writing a checkpoint every 8
// iterations beside the verified reads.
var pcgShard = libSpec{
	nx: 70, scheme: core.CRC32C,
	build: func(src *csr.Matrix, tr *tracer) (protectedOp, solvers.Preconditioner, error) {
		so, err := shard.New(src, shard.Options{
			Shards: 2, Format: op.SELLCS,
			Config: op.Config{Scheme: core.CRC32C}, VectorScheme: core.CRC32C,
		})
		if err != nil {
			return nil, nil, err
		}
		if so.Shards() != 2 {
			return nil, nil, fmt.Errorf("sharded operator has %d shards, want 2", so.Shards())
		}
		start := time.Now()
		pre, err := precond.For(precond.BlockJacobi, so, src, precond.Options{Scheme: core.CRC32C, Workers: workers})
		if err != nil {
			return nil, nil, err
		}
		tr.add("precond.setup_ms", millis(time.Since(start)))
		return so, pre, nil
	},
	solve: solvers.PCG,
	// The checkpoints are CRC32C too (the default would be SECDED64), so
	// that no SECDED code runs anywhere in this workload.
	recovery: solvers.Recovery{Policy: solvers.RecoveryRollback, Interval: 8, Scheme: core.CRC32C},
	opMetric: "shard.apply_ns_row", solver: "pcg",
}
