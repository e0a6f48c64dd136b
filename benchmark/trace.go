package main

import (
	"time"

	"abft/internal/core"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// Tracing lives in the benchmark's own files: spans are opened around
// the calls the solver makes into each layer's public functions, by
// wrapping the operator and the preconditioner it is handed. Spans
// inside the program are a later change (ROADMAP item 5).

// spans totals the child spans of one solve span. The solve span's self
// time is its duration minus these children.
type spans struct {
	apply, dot, pre     time.Duration
	applies, dots, pres int
	// phase splits the apply spans of a sharded operator at its
	// barriers, indexed by shard.Phase; phaseMark is the last barrier.
	phase     [3]time.Duration
	phaseMark time.Time
}

// tracer collects one sample per traced operation under each per-layer
// metric's name. A nil tracer records nothing, so untraced code paths
// call add unconditionally.
type tracer struct{ samples map[string][]float64 }

func newTracer() *tracer { return &tracer{samples: make(map[string][]float64)} }

func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

// protectedOp is what every storage format and the sharded composite
// provide: the matrix contract plus the two optional kernels the
// solvers look for.
type protectedOp interface {
	core.ProtectedMatrix
	core.UnverifiedApplier
	core.BatchApplier
}

// tracedOp is solvers.MatrixOperator with a span around every call. It
// forwards exactly the capabilities MatrixOperator lets the engine
// reach through M, so a traced solve takes the same fused, batched and
// unverified paths as an untraced one and stays bit-identical to it.
type tracedOp struct {
	m       protectedOp
	workers int
	sp      *spans
}

func (t tracedOp) Rows() int { return t.m.Rows() }

func (t tracedOp) Diagonal(dst []float64) error { return t.m.Diagonal(dst) }

func (t tracedOp) Apply(dst, x *core.Vector) error {
	start := time.Now()
	t.sp.phaseMark = start
	err := t.m.Apply(dst, x, t.workers)
	t.sp.apply += time.Since(start)
	t.sp.applies++
	return err
}

func (t tracedOp) ApplyUnverified(dst, x *core.Vector) error {
	start := time.Now()
	err := t.m.ApplyUnverified(dst, x, t.workers)
	t.sp.apply += time.Since(start)
	t.sp.applies++
	return err
}

func (t tracedOp) ApplyBatch(dst, x *core.MultiVector) error {
	start := time.Now()
	err := t.m.ApplyBatch(dst, x, t.workers)
	t.sp.apply += time.Since(start)
	t.sp.applies++
	return err
}

// tracedBanded adds the two capabilities only a sharded operator has.
// They are a separate type because the engine reads their presence: an
// operator with Dot but no bands loses the fused tail.
type tracedBanded struct {
	tracedOp
	so *shard.Operator
}

func (t tracedBanded) Dot(a, b *core.Vector) (float64, error) {
	start := time.Now()
	v, err := t.so.Dot(a, b)
	t.sp.dot += time.Since(start)
	t.sp.dots++
	return v, err
}

func (t tracedBanded) BandRanges() [][2]int { return t.so.BandRanges() }

// traceOperator wraps m for one traced solve. A sharded operator also
// gets a phase hook that splits each Apply span at its barriers; the
// returned function removes the hook again.
func traceOperator(m protectedOp, workers int, sp *spans) (solvers.Operator, func()) {
	base := tracedOp{m: m, workers: workers, sp: sp}
	so, ok := m.(*shard.Operator)
	if !ok {
		return base, func() {}
	}
	so.SetPhaseHook(func(p shard.Phase) {
		now := time.Now()
		sp.phase[p] += now.Sub(sp.phaseMark)
		sp.phaseMark = now
	})
	return tracedBanded{tracedOp: base, so: so}, func() { so.SetPhaseHook(nil) }
}

// tracedPre puts a span around every preconditioner application.
type tracedPre struct {
	inner solvers.Preconditioner
	sp    *spans
}

func (t tracedPre) Apply(z, r *core.Vector) error {
	start := time.Now()
	err := t.inner.Apply(z, r)
	t.sp.pre += time.Since(start)
	t.sp.pres++
	return err
}
