package service

import (
	"fmt"
	"runtime/debug"
	"time"

	"abft/internal/core"
	"abft/internal/obs"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// cachedOperator binds a cache entry to a worker count for the solver:
// the library's MatrixOperator over the entry's shared operator, plus
// the entry's resident Jacobi as the solvers' D^-1
// (solvers.ResidentJacobi). Unwrap names the MatrixOperator, so a
// sharded operator's band decomposition reaches the engine as it does
// bare. No solve reads the diagonal: the formats' own Diagonal decodes
// the whole matrix through a committing sweep, which must not run
// against shared storage under a read lock.
type cachedOperator struct {
	solvers.MatrixOperator
	e *cacheEntry
}

// Unwrap returns the operator the binding forwards to.
func (o cachedOperator) Unwrap() solvers.Operator { return o.MatrixOperator }

// Jacobi returns the entry's resident Jacobi, shared and scrubbed with
// the operator, or why the build found none.
func (o cachedOperator) Jacobi() (precond.Preconditioner, error) { return o.e.jac, o.e.jacErr }

// Diagonal refuses: the solvers take D^-1 from Jacobi, and the matrix's
// own Diagonal must not run under the entry's read lock.
func (o cachedOperator) Diagonal([]float64) error {
	return fmt.Errorf("service: a cached operator's diagonal is served as its resident Jacobi")
}

// operator binds the entry to a worker count for one solve.
func (e *cacheEntry) operator(workers int) solvers.Operator {
	return cachedOperator{solvers.MatrixOperator{M: e.m, Workers: workers}, e}
}

// buildOperator returns the cache-miss build closure for a job's
// operator: the protected encode, the resident Jacobi and the named
// preconditioner, traced and observed as StageBuild.
func (s *Server) buildOperator(j *job) func(*cacheEntry) error {
	p := j.params
	return func(e *cacheEntry) error {
		endBuild := j.trace.Start(StageBuild)
		defer func() { s.observe(StageBuild, endBuild(fmt.Sprintf("%v, %d shards", p.format, max(p.shards, 1)))) }()
		cfg := op.Config{
			Scheme:       p.scheme,
			RowPtrScheme: p.rowptr,
			Sigma:        p.sigma,
		}
		plain := j.plain
		var err error
		if plain == nil {
			// Admission knew the digest and never read the source, yet
			// here is a build: the entry has been evicted since (LRU,
			// fault, scrub), or these knobs had none. The retained
			// document is read now.
			if plain, err = s.assemble(&j.req.Matrix, j.quoted); err != nil {
				return err
			}
		}
		// Row-partitioned when p.shards > 1: each band holds its own
		// protected local matrix in the effective format, and the
		// request's vector scheme protects the halo buffers the bands
		// exchange through.
		m, err := shard.Build(plain, shard.Options{
			Shards:       p.shards,
			Format:       p.format,
			Config:       cfg,
			VectorScheme: p.vectors,
		})
		if err != nil {
			return err
		}
		// The preconditioners build with the operator: their setup
		// product is protected by the same scheme. The entry outlives
		// this job and Workers is per-request (and outside the cache
		// key), so their Apply worker count is the server's fixed cap,
		// never the first requester's.
		popt := precond.Options{Scheme: p.scheme, Workers: s.cfg.MaxSolveWorkers}
		// Every entry keeps one resident Jacobi; a zero on the diagonal
		// fails only the solves that need D^-1.
		e.jac, e.jacErr = precond.New(precond.Jacobi, plain, popt)
		switch p.precond {
		case precond.None:
		case precond.Jacobi:
			e.pre, err = e.jac, e.jacErr
		default:
			e.pre, err = precond.New(p.precond, plain, popt)
		}
		if err != nil {
			return err
		}
		// Counters attach at build time, before the operator is shared;
		// they are internally atomic, so concurrent jobs and the scrub
		// daemon account into them safely. Shared mode: from here on
		// Apply never writes the operator's or a preconditioner's
		// storage (concurrent jobs hold only the read lock); the scrub
		// daemon — under the exclusive lock — is the one writer.
		counters := &core.Counters{}
		m.SetCounters(counters)
		m.SetReadMode(core.ModeShared)
		for _, pre := range []precond.Preconditioner{e.jac, e.pre} {
			if pre != nil {
				pre.SetCounters(counters)
				pre.SetReadMode(core.ModeShared)
			}
		}
		e.m = m
		return nil
	}
}

// resolvedOptions assembles the result's consolidated knob echo from a
// job's admission-time resolution.
func resolvedOptions(j *job) *ResolvedOptions {
	p := j.params
	o := &ResolvedOptions{
		Solver:           p.kind.String(),
		Format:           p.format.String(),
		Recovery:         p.opt.Recovery.Policy.String(),
		RecoveryInterval: p.opt.Recovery.Interval,
		Reliability:      p.reliability.String(),
		Restart:          p.opt.Restart,
		Workers:          p.opt.Workers,
		Autotune:         j.tuned,
	}
	if p.precond != precond.None {
		o.Precond = p.precond.String()
	}
	if p.scheme != core.None {
		o.Scheme = p.scheme.String()
	}
	if p.rowptr != core.None {
		o.RowPtrScheme = p.rowptr.String()
	}
	if p.vectors != core.None {
		o.VectorScheme = p.vectors.String()
	}
	if p.shards > 1 {
		o.Shards = p.shards
	}
	if p.kind != solvers.KindFGMRES {
		o.Restart = 0
	}
	return o
}

// runJob drives one execution from worker pickup to the finished jobs:
// the dequeued job is sealed with whatever coalesced into it while it
// waited, and the group — a lone single-RHS job, a coalesced group of
// them, or one rhs_batch job (which never coalesces) — runs as one solve
// whose width is its number of right-hand sides. group[0] is the leader;
// its trace carries the shared solve's spans and residual trajectory.
func (s *Server) runJob(lead *job) {
	group := s.seal(lead)
	for _, j := range group {
		wait := j.setRunning()
		j.trace.Add(StageQueueWait, j.submitted, wait, "")
		s.observe(StageQueueWait, wait)
	}
	s.log.Debug("solve started", "leader", lead.id, "jobs", len(group))
	results, e, err := s.solveGroup(group)
	if solvers.IsFault(err) && e != nil {
		// The solve tripped over corruption the operator's scheme
		// cannot repair: drop the exact operator it ran against now
		// rather than waiting for the next scrub pass (which may be
		// disabled). The eviction is identity-checked, so if the scrub
		// daemon already evicted it — or a clean rebuild took the key —
		// this is a no-op and never drops a healthy operator.
		s.cache.evictFault(e)
		s.journal.Append(obs.Event{
			Kind: obs.EventReadFault, Job: lead.id, Operator: opShort(lead.key),
			Detail: err.Error(),
		})
		s.log.Warn("read-path fault detected", "job", lead.id, "operator", opShort(lead.key), "err", err)
		if lead.params.opt.Recovery.Policy != solvers.RecoveryOff {
			// A fault that survived solver-level rollback lives in the
			// resident operator, not the dynamic state; the eviction
			// above cleared it, so one service-level retry of the whole
			// group against a freshly built operator completes the
			// recovery ladder.
			s.jobsRetried.Add(1)
			cause := err.Error()
			s.journal.Append(obs.Event{
				Kind: obs.EventJobRetry, Job: lead.id, Operator: opShort(lead.key),
				Detail: "retrying against a rebuilt operator: " + cause,
			})
			endRetry := lead.trace.Start(StageRetry)
			var e2 *cacheEntry
			results, e2, err = s.solveGroup(group)
			s.observe(StageRetry, endRetry(cause))
			for _, res := range results {
				res.Retried = true
			}
			if solvers.IsFault(err) && e2 != nil {
				s.cache.evictFault(e2)
			}
		}
	}
	for i, j := range group {
		// The operator source and right-hand sides exist to admit and
		// build; release them so the finished-job history does not pin
		// them (a MatrixMarket request is hundreds of kilobytes).
		j.plain = nil
		j.quoted = nil
		j.req = SolveRequest{}
		var res *SolveResult
		if i < len(results) {
			res = results[i]
		}
		if err != nil {
			s.jobsFailed.Add(1)
		} else {
			s.jobsDone.Add(1)
			if res.Rollbacks > 0 {
				s.jobsRecovered.Add(1)
			}
		}
		if res != nil {
			if j == lead {
				// Rollbacks belong to the one shared solve; counting them
				// per passenger would inflate the lifetime totals.
				s.rollbacks.Add(uint64(res.Rollbacks))
				s.recomputedIters.Add(uint64(res.RecomputedIterations))
			}
			j.trace.Count("rollbacks", uint64(res.Rollbacks))
			j.trace.Count("recomputed_iterations", uint64(res.RecomputedIterations))
			j.trace.Count("checks", res.Checks)
			j.trace.Count("corrected", res.Corrected)
			j.trace.Count("detected", res.Detected)
			j.trace.Count("bounds", res.Bounds)
		}
		j.finish(res, err, solvers.IsFault(err))
		if err != nil {
			s.log.Warn("job failed", "job", j.id, "fault", solvers.IsFault(err),
				"duration", time.Since(j.submitted), "err", err)
		} else {
			s.log.Info("job finished", "job", j.id,
				"iterations", res.Iterations, "converged", res.Converged,
				"residual", res.ResidualNorm, "cache_hit", res.CacheHit,
				"batch_width", max(res.BatchWidth, 1), "coalesced", res.Coalesced,
				"rollbacks", res.Rollbacks, "retried", res.Retried,
				"duration", time.Since(j.submitted))
		}
		s.retire(j)
	}
}

// solveGroup executes the group's right-hand sides as one solve against
// the shared operator cache and splits the outcome back into one
// SolveResult per job. The protected encode happens at most once per
// operator key (single-flight inside the cache); the solve itself runs
// under the entry's shared lock so the scrub daemon's in-place repairs
// never interleave with it. Every column of a job accounts into that
// job's own counters, so the per-job ABFT deltas stay attributable even
// though the matrix-side checks are shared. The entry the solve ran
// against is returned for fault handling (nil when the build itself
// failed).
func (s *Server) solveGroup(group []*job) ([]*SolveResult, *cacheEntry, error) {
	lead := group[0]
	p := lead.params
	e, hit, err := s.cache.get(lead.key, lead.digest, lead.profile, s.buildOperator(lead))
	if err != nil {
		return nil, nil, err
	}

	rows := e.m.Rows()
	// Column layout: each job contributes its right-hand sides in group
	// order — one column per single-RHS job, len(RHSBatch) for an
	// explicit batch.
	var bcols, xcols []*core.Vector
	var jcs []*core.Counters
	colJob := make([]int, 0, len(group))
	for gi, j := range group {
		jc := &core.Counters{}
		jcs = append(jcs, jc)
		cols := j.req.RHSBatch
		if len(cols) == 0 {
			cols = [][]float64{j.req.B}
		}
		for _, col := range cols {
			var b *core.Vector
			if len(col) > 0 {
				b = core.VectorFromSlice(col, p.vectors)
			} else {
				b = core.NewVector(rows, p.vectors)
				b.Fill(1)
			}
			x := core.NewVector(rows, p.vectors)
			for _, v := range []*core.Vector{b, x} {
				v.SetCounters(jc)
			}
			bcols = append(bcols, b)
			xcols = append(xcols, x)
			colJob = append(colJob, gi)
		}
	}
	bmv, err := core.WrapMultiVector(bcols...)
	if err != nil {
		return nil, e, err
	}
	xmv, err := core.WrapMultiVector(xcols...)
	if err != nil {
		return nil, e, err
	}
	width := bmv.K()

	opt := p.opt
	if e.pre != nil {
		// The cached preconditioner applies under the same shared lock
		// as the operator; its in-place repairs are deferred to the
		// scrub daemon (no-commit mode), so concurrent solves never
		// write its storage.
		opt.Preconditioner = e.pre
	}
	if s.testStateHook != nil {
		opt.StateHook = s.testStateHook
	}
	// The engine's progress hook feeds the leader's trace: the residual
	// trajectory iteration by iteration, and one recovery span plus one
	// journal entry per checkpoint rollback — the per-fault visibility
	// the lifetime counters on /metrics cannot give.
	opt.Progress = func(ev solvers.ProgressEvent) {
		switch ev.Kind {
		case solvers.ProgressIteration:
			lead.trace.Residual(ev.Residual)
		case solvers.ProgressRollback:
			detail := fmt.Sprintf("iteration %d rolled back, resuming at %d", ev.Iteration, ev.Resumed)
			lead.trace.Add(StageRecovery, time.Now().Add(-ev.Duration), ev.Duration, detail)
			s.observe(StageRecovery, ev.Duration)
			s.journal.Append(obs.Event{
				Kind: obs.EventSolverRollback, Job: lead.id, Operator: opShort(lead.key),
				Detail: detail,
			})
			s.log.Warn("solver rollback", "job", lead.id, "iteration", ev.Iteration, "resumed", ev.Resumed)
		}
	}
	detail := p.kind.String()
	if width > 1 {
		detail = fmt.Sprintf("%v, %d rhs", p.kind, width)
	}
	endSolve := lead.trace.Start(StageSolve)
	var br solvers.BatchResult
	serr := func() (err error) {
		// A panicking solve fails its group, not the daemon, and must
		// release the entry's shared lock, or the scrub daemon's
		// exclusive one would wait for it forever.
		e.mu.RLock()
		defer e.mu.RUnlock()
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("service: solve panicked: %v", r)
				detail = fmt.Sprintf("%s: %v\n%s", detail, err, debug.Stack())
			}
		}()
		br, err = solvers.SolveBatch(p.kind, e.operator(p.opt.Workers), xmv, bmv, opt)
		return err
	}()
	d := endSolve(detail)
	s.observe(StageSolve, d)
	s.observeBatchWidth(width)
	for _, j := range group[1:] {
		j.trace.Add(StageSolve, time.Now().Add(-d), d, fmt.Sprintf("batched with %s, %d rhs", lead.id, width))
	}
	if serr != nil {
		return nil, e, serr
	}

	results := make([]*SolveResult, len(group))
	for gi, j := range group {
		res := &SolveResult{
			Options:              resolvedOptions(j),
			Converged:            true,
			CacheHit:             hit,
			Operator:             j.digest,
			Coalesced:            len(group) > 1,
			Rollbacks:            br.Rollbacks,
			RecomputedIterations: br.RecomputedIterations,
		}
		if width > 1 {
			res.BatchWidth = width
		}
		for ci, g := range colJob {
			if g != gi {
				continue
			}
			out := make([]float64, rows)
			if err := xmv.Col(ci).CopyTo(out); err != nil {
				return nil, e, err
			}
			c := br.Columns[ci]
			if len(j.req.RHSBatch) > 0 {
				res.XBatch = append(res.XBatch, out)
				res.Columns = append(res.Columns, BatchColumn(c))
			} else {
				res.X = out
			}
			if c.Iterations > res.Iterations {
				res.Iterations = c.Iterations
			}
			if c.ResidualNorm > res.ResidualNorm {
				res.ResidualNorm = c.ResidualNorm
			}
			res.Converged = res.Converged && c.Converged
		}
		// Taken after the solutions are decoded: that verified read is
		// the job's too.
		snap := jcs[gi].Snapshot()
		res.Checks, res.Corrected, res.Detected, res.Bounds = snap.Checks, snap.Corrected, snap.Detected, snap.Bounds
		results[gi] = res
	}
	return results, e, nil
}
