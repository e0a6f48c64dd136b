package obs

import (
	"sync"
	"time"
)

// maxTraceResiduals bounds the per-iteration residual history a trace
// retains, so a pathological 100k-iteration solve cannot pin unbounded
// memory in the finished-job history. The prefix is kept (it holds the
// fault signature: dips and rollback plateaus appear where they
// happened) and the drop count is reported.
const maxTraceResiduals = 4096

// Span is one timed stage of a job's lifecycle: queue wait, operator
// build, the solve itself, a rollback recovery, a retry.
type Span struct {
	// Stage names the lifecycle stage ("admission", "queue_wait",
	// "build", "solve", "recovery", "retry").
	Stage string `json:"stage"`
	// Start is the wall-clock start of the span.
	Start time.Time `json:"start"`
	// Seconds is the span's wall-clock duration.
	Seconds float64 `json:"seconds"`
	// Detail optionally annotates the span (autotune reason, rollback
	// resume point, retry cause).
	Detail string `json:"detail,omitempty"`
}

// Trace accumulates the telemetry of one solve job: stage spans, the
// solver's per-iteration residual trajectory, and named fault counters.
// All methods are safe for concurrent use — status readers snapshot a
// trace while the worker is still appending to it.
type Trace struct {
	mu       sync.Mutex
	id       string
	begin    time.Time
	spans    []Span
	resids   []float64
	dropped  int
	counters map[string]uint64
}

// NewTrace starts the trace of job id; begin is now.
func NewTrace(id string) *Trace {
	return &Trace{id: id, begin: time.Now()}
}

// Add records a completed span.
func (t *Trace) Add(stage string, start time.Time, d time.Duration, detail string) {
	t.mu.Lock()
	t.spans = append(t.spans, Span{Stage: stage, Start: start, Seconds: d.Seconds(), Detail: detail})
	t.mu.Unlock()
}

// Start opens a span and returns its closer; calling the closer records
// the span and returns the elapsed duration (for histogram accounting).
func (t *Trace) Start(stage string) func(detail string) time.Duration {
	start := time.Now()
	return func(detail string) time.Duration {
		d := time.Since(start)
		t.Add(stage, start, d, detail)
		return d
	}
}

// Residual appends one per-iteration residual norm, keeping the first
// maxTraceResiduals and counting the rest as dropped.
func (t *Trace) Residual(r float64) {
	t.mu.Lock()
	if len(t.resids) < maxTraceResiduals {
		t.resids = append(t.resids, r)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// Count adds delta to the named fault counter.
func (t *Trace) Count(name string, delta uint64) {
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]uint64)
	}
	t.counters[name] += delta
	t.mu.Unlock()
}

// TraceSnapshot is the JSON body of GET /v1/jobs/{id}/trace: the full
// span list in recording order, the residual trajectory and the fault
// counters.
type TraceSnapshot struct {
	JobID string    `json:"job_id"`
	Begin time.Time `json:"begin"`
	Spans []Span    `json:"spans"`
	// Counters holds the job's fault accounting (checks, corrected,
	// detected, rollbacks, ...), filled in as the job progresses.
	Counters map[string]uint64 `json:"counters,omitempty"`
	// Residuals is the solver's per-iteration residual norm history
	// (bounded; ResidualsDropped counts iterations past the bound).
	Residuals        []float64 `json:"residuals,omitempty"`
	ResidualsDropped int       `json:"residuals_dropped,omitempty"`
}

// Snapshot copies the trace's current state.
func (t *Trace) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSnapshot{
		JobID:            t.id,
		Begin:            t.begin,
		Spans:            append([]Span(nil), t.spans...),
		Residuals:        append([]float64(nil), t.resids...),
		ResidualsDropped: t.dropped,
	}
	if len(t.counters) > 0 {
		s.Counters = make(map[string]uint64, len(t.counters))
		for k, v := range t.counters {
			s.Counters[k] = v
		}
	}
	return s
}

// TraceSummary condenses a trace for JobStatus: total seconds per stage
// plus the span and recorded-residual counts. Clients wanting the full
// span list fetch /v1/jobs/{id}/trace.
type TraceSummary struct {
	// StageSeconds sums span durations by stage name.
	StageSeconds map[string]float64 `json:"stage_seconds"`
	// Spans is the recorded span count (a stage with several spans —
	// one per rollback, say — contributes each of them).
	Spans int `json:"spans"`
	// Residuals is the recorded residual-history length.
	Residuals int `json:"residuals,omitempty"`
}

// Summary condenses the trace.
func (t *Trace) Summary() TraceSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := TraceSummary{StageSeconds: make(map[string]float64, 8), Spans: len(t.spans), Residuals: len(t.resids)}
	for _, sp := range t.spans {
		s.StageSeconds[sp.Stage] += sp.Seconds
	}
	return s
}
