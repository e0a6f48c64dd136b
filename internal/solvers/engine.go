package solvers

import (
	"cmp"
	"time"

	"abft/internal/core"
)

// checkpoint is one snapshot of the solver's live state: protected
// copies of every registered vector, the registered recurrence scalars,
// and the Result bookkeeping needed to rewind cleanly.
type checkpoint struct {
	it      int
	vecs    []*core.Vector
	scalars []float64
	resNorm float64
	// Slice lengths to truncate Result accumulators to on rollback.
	alphas, betas, history int
}

// engine is the shared iteration core the five solver loops run on: it
// owns the temp-vector pool, the convergence test, iteration accounting
// and history recording, and the recovery controller that snapshots the
// live solver vectors into codeword-protected checkpoint storage and
// rolls back past detected uncorrectable faults in dynamic state.
type engine struct {
	solver string
	a      Operator
	opt    Options
	w      int
	x, b   *core.Vector
	res    Result

	// live are the registered dynamic vectors a checkpoint covers; the
	// remaining temps are scratch that every iteration fully rewrites
	// (and thereby re-encodes), so corruption there self-heals.
	live    []*core.Vector
	scalars []*float64

	rec      Recovery
	adaptive bool
	interval int
	clean    int // consecutive clean checkpoints since the last rollback
	ckpt     checkpoint
	// spare is the double buffer snapshots write into before swapping
	// with ckpt.vecs: a fault detected mid-snapshot must leave the last
	// good checkpoint intact, never a mix of two iterations.
	spare   []*core.Vector
	hasCkpt bool

	// band is the operator's band decomposition (nil for a flat one) and
	// fuse the options of every vector pass, mirroring its dot reduction
	// (initFuse).
	band BandedOperator
	fuse core.FusedOptions
	// dots are product's requests for p . w, one per column, and ups the
	// columns' direction updates, which ride the next product's read of
	// p when that product comes next (productNext).
	dots []core.DotRequest
	ups  []*core.UpdateRequest
}

// newEngine validates the options and prepares an engine for one solve.
func newEngine(solver string, a Operator, x, b *core.Vector, opt Options) (*engine, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	e := &engine{
		solver: solver,
		a:      a,
		opt:    opt,
		w:      opt.Workers,
		x:      x,
		b:      b,
		rec:    opt.Recovery.withDefaults(),
	}
	e.adaptive = e.rec.Interval == 0
	e.interval = e.rec.Interval
	if e.adaptive {
		e.interval = defaultCheckpointInterval
	}
	e.band, _ = capability[BandedOperator](a)
	e.initFuse()
	return e, nil
}

func (e *engine) recovering() bool { return e.rec.Policy != RecoveryOff }

// temp allocates a work vector matching x's protection scheme.
func (e *engine) temp() *core.Vector { return newTemp(e.x) }

// protect registers the live vectors a checkpoint must cover. Order is
// stable across snapshot and restore.
func (e *engine) protect(vs ...*core.Vector) { e.live = append(e.live, vs...) }

// state registers the recurrence scalars a checkpoint must cover.
func (e *engine) state(ss ...*float64) { e.scalars = append(e.scalars, ss...) }

// dot computes a . b through the operator's band reduction when it has
// one, otherwise through the flat protected kernel with the solve's
// worker count.
func (e *engine) dot(a, b *core.Vector) (float64, error) {
	if e.band != nil {
		return e.band.Dot(a, b)
	}
	return core.Dot(a, b, e.w)
}

// apply computes w = A p for every column: Apply at width one,
// ApplyBatch wider.
func (e *engine) apply(w, p *core.MultiVector) error {
	if p.K() == 1 {
		return e.a.Apply(w.Col(0), p.Col(0))
	}
	return e.a.ApplyBatch(w, p)
}

// product computes w = A p for every column (apply) and
// pws[j] = p_j . w_j. Each w_j carries a request
// for p_j . w_j reduced as e.dot reduces (core.DotRequest), so the
// format sweep that writes w_j hands the dot back from values it holds
// anyway, however the operator is wrapped; a column whose product left
// the request unanswered gets e.dot after the product. Both give the
// same bits.
//
// An update pending on p_j (core.UpdateRequest) is run by the product's
// read of p_j. A product that returns with one still attached never
// read p through core, so it multiplied the old p: the engine runs the
// updates and the product again.
func (e *engine) product(w, p *core.MultiVector, pws []float64) error {
	err := e.productOnce(w, p, pws)
	ran, uerr := e.runUpdates()
	if err == nil && uerr == nil && ran {
		return e.productOnce(w, p, pws)
	}
	return cmp.Or(err, uerr)
}

// productOnce is one product with its dot requests.
func (e *engine) productOnce(w, p *core.MultiVector, pws []float64) error {
	if len(e.dots) < len(pws) {
		e.dots = make([]core.DotRequest, len(pws))
	}
	for j := range pws {
		e.dots[j].Ask(w.Col(j), p.Col(j), e.fuse)
	}
	err := e.apply(w, p)
	for j := range pws {
		pw, ok := e.dots[j].Take()
		switch {
		case err != nil:
		case ok:
			pws[j] = pw
		default:
			pws[j], err = e.dot(p.Col(j), w.Col(j))
		}
	}
	return err
}

// productNext reports whether the engine's next action after iteration
// it is a product, so an update may ride its read of p: not at MaxIter,
// not when a snapshot follows and not under a StateHook, which observes
// the live vectors between the two. Every snapshot, hook call and
// returned x therefore sees every update applied.
func (e *engine) productNext(it int) bool {
	return it < e.opt.MaxIter && !e.snapshotDue(it) && e.opt.StateHook == nil
}

// snapshotDue reports whether a rollback checkpoint follows iteration it.
func (e *engine) snapshotDue(it int) bool {
	return e.rec.Policy == RecoveryRollback && it%e.interval == 0
}

// runUpdates runs every update still pending and reports whether there
// was one.
func (e *engine) runUpdates() (ran bool, err error) {
	for _, u := range e.ups {
		if u.Pending() {
			ran = true
			err = cmp.Or(err, u.Run())
		}
	}
	return ran, err
}

// converged evaluates the stopping rule on squared residual norms.
func (e *engine) converged(rr, rr0 float64) bool { return converged(rr, rr0, e.opt) }

// copyVec transfers src into dst through the verified read / re-encode
// path: one pass under the solve's decomposition, so a banded operator's
// vectors copy per band on per-band goroutines.
func (e *engine) copyVec(dst, src *core.Vector) error {
	_, err := e.pass(core.DotOf{}, core.Lin{Dst: dst, X: src})
	return err
}

// snapshot copies every registered vector and scalar into the protected
// checkpoint storage and records the Result bookkeeping to rewind to.
// The copy verifies the live data as it reads it, so a snapshot never
// captures detectable corruption — a fault found here recovers like any
// other iteration fault. Snapshots are double-buffered: the copies land
// in the spare set and only a fully successful pass swaps it in, so a
// fault detected mid-snapshot leaves the last good checkpoint intact
// for the rollback that follows.
func (e *engine) snapshot(it int) error {
	if e.ckpt.vecs == nil {
		for _, v := range e.live {
			for _, set := range []*[]*core.Vector{&e.ckpt.vecs, &e.spare} {
				c := core.NewVector(v.Len(), e.rec.Scheme)
				c.SetCounters(v.Counters())
				*set = append(*set, c)
			}
		}
		e.ckpt.scalars = make([]float64, len(e.scalars))
	}
	for i, v := range e.live {
		if err := e.copyVec(e.spare[i], v); err != nil {
			return err
		}
	}
	e.ckpt.vecs, e.spare = e.spare, e.ckpt.vecs
	for i, p := range e.scalars {
		e.ckpt.scalars[i] = *p
	}
	e.ckpt.it = it
	e.ckpt.resNorm = e.res.ResidualNorm
	e.ckpt.alphas = len(e.res.Alphas)
	e.ckpt.betas = len(e.res.Betas)
	e.ckpt.history = len(e.res.History)
	e.hasCkpt = true
	e.res.Checkpoints++
	if e.adaptive && it > 0 {
		if e.clean++; e.clean >= adaptGrowAfter && e.interval < maxCheckpointInterval {
			e.interval *= 2
			e.clean = 0
		}
	}
	return nil
}

// rollback restores the last good checkpoint after the fault cause
// interrupted iteration it. Restoring re-encodes the live vectors'
// storage from verified checkpoint data, which clears corruption in
// dynamic state; a fault resident elsewhere (the operator itself) will
// re-fire and drain the rollback budget instead. It returns the
// iteration to resume from, or ok=false when the fault is not
// recoverable (policy off, not an ABFT fault, no checkpoint, budget
// exhausted, or the checkpoint storage itself is corrupt).
func (e *engine) rollback(it int, cause error) (resume int, ok bool) {
	if !e.recovering() || !IsFault(cause) || !e.hasCkpt {
		return 0, false
	}
	if e.res.Rollbacks >= maxRollbacks {
		return 0, false
	}
	// The restore replaces p: an update pending on it is void.
	for _, u := range e.ups {
		u.Drop()
	}
	for i, v := range e.live {
		if err := e.copyVec(v, e.ckpt.vecs[i]); err != nil {
			return 0, false
		}
	}
	for i, p := range e.scalars {
		*p = e.ckpt.scalars[i]
	}
	e.res.ResidualNorm = e.ckpt.resNorm
	e.res.Alphas = e.res.Alphas[:e.ckpt.alphas]
	e.res.Betas = e.res.Betas[:e.ckpt.betas]
	e.res.History = e.res.History[:e.ckpt.history]
	e.res.Rollbacks++
	e.res.RecomputedIterations += it - e.ckpt.it
	if e.adaptive && e.interval > minCheckpointInterval {
		e.interval /= 2
	}
	e.clean = 0
	return e.ckpt.it + 1, true
}

// takeCheckpoint is snapshot plus observability: the snapshot is timed
// and reported through Options.Progress when a hook is installed.
func (e *engine) takeCheckpoint(it int) error {
	start := time.Now()
	if err := e.snapshot(it); err != nil {
		return err
	}
	if e.opt.Progress != nil {
		e.opt.Progress(ProgressEvent{
			Kind:      ProgressCheckpoint,
			Iteration: it,
			Residual:  e.res.ResidualNorm,
			Duration:  time.Since(start),
		})
	}
	return nil
}

// recover is rollback plus observability: a successful restore is timed
// and reported through Options.Progress with the iteration the solve
// resumes from.
func (e *engine) recover(it int, cause error) (resume int, ok bool) {
	start := time.Now()
	resume, ok = e.rollback(it, cause)
	if ok && e.opt.Progress != nil {
		e.opt.Progress(ProgressEvent{
			Kind:      ProgressRollback,
			Iteration: it,
			Residual:  e.res.ResidualNorm,
			Resumed:   resume,
			Duration:  time.Since(start),
		})
	}
	return resume, ok
}

// run drives the iteration loop. step performs one recurrence iteration
// — updating the live vectors, appending Alphas/Betas and setting
// res.ResidualNorm — and reports whether the stopping rule is met.
// The engine appends history, counts iterations, takes checkpoints on
// the controller's cadence and rolls back past recoverable faults;
// errors that survive recovery are wrapped with the iteration they
// interrupted, exactly as the hand-rolled loops did.
//
// Initialisation (the residual setup before the loop) runs in the
// caller before run: recovery covers the iteration loop, so a fault
// during setup surfaces as before. The post-initialisation state is
// checkpoint zero — the restart policy's only checkpoint.
func (e *engine) run(step func(it int) (bool, error)) (Result, error) {
	if e.recovering() {
		if err := e.takeCheckpoint(0); err != nil {
			return e.res, iterErr(e.solver, 0, err)
		}
	}
	it := 1
	for it <= e.opt.MaxIter {
		e.res.Iterations = it
		if e.opt.StateHook != nil {
			e.opt.StateHook(it, e.live)
		}
		done, err := step(it)
		if err != nil {
			resume, ok := e.recover(it, err)
			if !ok {
				// A column may have deferred its update before another
				// failed: x leaves with it applied. The solve fails with
				// err whatever the update returns.
				_, _ = e.runUpdates()
				return e.res, iterErr(e.solver, it, err)
			}
			it = resume
			continue
		}
		if e.opt.Progress != nil {
			e.opt.Progress(ProgressEvent{
				Kind:      ProgressIteration,
				Iteration: it,
				Residual:  e.res.ResidualNorm,
			})
		}
		if e.opt.RecordHistory {
			e.res.History = append(e.res.History, e.res.ResidualNorm)
		}
		if done {
			e.res.Converged = true
			return e.res, nil
		}
		if e.snapshotDue(it) {
			if err := e.takeCheckpoint(it); err != nil {
				resume, ok := e.recover(it, err)
				if !ok {
					return e.res, iterErr(e.solver, it, err)
				}
				it = resume
				continue
			}
		}
		it++
	}
	return e.res, nil
}
