package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/mm"
	"abft/internal/obs"
	"abft/internal/solvers"
)

// Config sizes the service.
type Config struct {
	// Workers is the solve worker-pool size (default 4).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker
	// (default 64); a full queue rejects new solves with 429 and a
	// Retry-After header.
	QueueDepth int
	// CacheOperators bounds the number of resident protected operators
	// (default 16); least-recently-used operators are evicted beyond it.
	CacheOperators int
	// ScrubInterval is the patrol cadence of the background scrub
	// daemon; non-positive disables background scrubbing.
	ScrubInterval time.Duration
	// MaxSolveWorkers clamps the per-job kernel goroutine count
	// (default 8).
	MaxSolveWorkers int
	// MaxShards clamps the per-request shard count of sharded solves
	// (default 16).
	MaxShards int
	// JobHistory bounds how many finished jobs stay queryable
	// (default 1024); the oldest finished jobs are forgotten beyond it.
	JobHistory int
	// Logger receives the service's structured logs: job lifecycle,
	// cache builds and evictions, scrub activity, fault events. Nil
	// discards everything (the embedding default); cmd/abftd injects a
	// real slog JSON logger.
	Logger *slog.Logger
	// EventJournal bounds the fault-event ring buffer served at
	// GET /v1/events (default 512); appends past it overwrite the
	// oldest events.
	EventJournal int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheOperators <= 0 {
		c.CacheOperators = 16
	}
	if c.MaxSolveWorkers <= 0 {
		c.MaxSolveWorkers = 8
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 16
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 1024
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.EventJournal <= 0 {
		c.EventJournal = 512
	}
	return c
}

// Stage names of the per-job trace spans and the per-stage latency
// histograms on /metrics.
const (
	// StageAdmission covers request validation, hashing the operator
	// source, assembling it when the digest is unknown, and autotuning.
	StageAdmission = "admission"
	// StageQueueWait covers enqueue to worker pickup.
	StageQueueWait = "queue_wait"
	// StageBuild covers a protected-operator encode (cache misses only).
	StageBuild = "build"
	// StageSolve covers the solver run (one span per attempt).
	StageSolve = "solve"
	// StageRecovery covers each solver checkpoint-rollback restore.
	StageRecovery = "recovery"
	// StageRetry covers the service-level retry solve after a fault
	// survived solver recovery.
	StageRetry = "retry"
	// StageCoalesce marks a job merged into another queued job's batched
	// solve: on the passenger it covers submit to attach, on the leader
	// the seal records the final batch width.
	StageCoalesce = "queue_coalesce"
)

// stages lists every stage in /metrics display order.
var stages = []string{StageAdmission, StageQueueWait, StageCoalesce, StageBuild, StageSolve, StageRecovery, StageRetry}

// opShort shortens an operator cache key (content hash plus knobs) to a
// journal-friendly attribution tag.
func opShort(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// job carries one solve through the queue.
type job struct {
	id     string
	req    SolveRequest
	params solveParams
	// quoted is an HTTP request's matrix_market document as it lay in the
	// body (a JSON string, still quoted); with req.Matrix it is the
	// source the operator is built from, retained until the job finishes.
	quoted []byte
	// plain is the assembled source, nil when admission knew the digest
	// and so never read the document: the build closure then assembles
	// it if the entry has been evicted since.
	plain *csr.Matrix
	// digest addresses the source by its bytes; profile is what admission
	// knows of it (immutable after admission, so loggers may read it
	// while a worker owns the job).
	digest  string
	profile MatrixProfile
	tuned   *AutotuneDecision
	key     string
	// trace accumulates the job's stage spans, residual trajectory and
	// fault counters; it has its own lock, so the worker appends while
	// status readers snapshot.
	trace *obs.Trace
	// submitted is set at admission and immutable after.
	submitted time.Time
	// coalKey is the coalescing identity of a batch-eligible single-RHS
	// job (empty otherwise). passengers are later such jobs merged into
	// this job's solve while it waited in the queue, and sealed flips
	// when a worker picks the job up — no passenger attaches after. All
	// three are guarded by the server's coalMu.
	coalKey    string
	passengers []*job
	sealed     bool

	mu       sync.Mutex
	state    JobState
	started  time.Time
	finished time.Time
	result   *SolveResult
	err      error
	fault    bool
	done     chan struct{}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Result: j.result, Submitted: j.submitted}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if sum := j.trace.Summary(); sum.Spans > 0 {
		st.Trace = &sum
	}
	if j.err != nil {
		st.Error = j.err.Error()
		st.Fault = j.fault
	}
	return st
}

// dropSolution releases the solution vector of a delivered result,
// replacing the result with an X-less copy (concurrent status readers
// may still hold — and safely read — the old one).
func (j *job) dropSolution() {
	j.mu.Lock()
	if j.result != nil && j.result.X != nil {
		trimmed := *j.result
		trimmed.X = nil
		j.result = &trimmed
	}
	j.mu.Unlock()
}

// setRunning marks the job running and returns its queue wait.
func (j *job) setRunning() time.Duration {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	wait := j.started.Sub(j.submitted)
	j.mu.Unlock()
	return wait
}

func (j *job) finish(res *SolveResult, err error, fault bool) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.err = err
		j.fault = fault
	} else {
		j.state = StateDone
		j.result = res
	}
	j.mu.Unlock()
	close(j.done)
}

// Server is the abftd solve service: an http.Handler exposing
// POST /v1/solve, GET /v1/jobs/{id}, GET /v1/jobs/{id}/trace,
// GET /v1/events, GET /healthz and GET /metrics, backed by a bounded
// worker pool, the protected-operator cache and the background scrub
// daemon. Create with New, dispose with Close.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	cache *operatorCache
	scrub *scrubDaemon
	log   *slog.Logger
	// journal is the bounded fault-event ring served at /v1/events:
	// scrub corrections and evictions, read-path fault detections,
	// solver rollbacks and job retries, each timestamped and attributed.
	journal *obs.Journal
	// hist holds one lock-free latency histogram per lifecycle stage,
	// rendered as native Prometheus histograms on /metrics.
	hist map[string]*obs.Histogram
	// testStateHook, when set (package tests only), is installed as the
	// solver StateHook of every job — the fault-injection seam that lets
	// integration tests strike live solver state mid-iteration, the one
	// fault class unreachable from outside a running solve.
	testStateHook func(it int, live []*core.Vector)

	queue chan *job
	wg    sync.WaitGroup
	// qmu arbitrates enqueue sends against Close's close(queue):
	// senders hold it shared, Close exclusively, so a send can never
	// hit a just-closed channel.
	qmu    sync.RWMutex
	closed atomic.Bool

	jobMu    sync.RWMutex
	jobs     map[string]*job
	finished []string // FIFO of finished job ids, bounded by JobHistory

	nextID       atomic.Uint64
	start        time.Time
	jobsDone     atomic.Uint64
	jobsFailed   atomic.Uint64
	jobsRejected atomic.Uint64
	jobsSharded  atomic.Uint64
	// jobsSelective counts jobs admitted with selective (unverified
	// inner solve) reliability.
	jobsSelective atomic.Uint64
	// Recovery accounting: jobs that finished after solver rollbacks,
	// jobs the service retried against a rebuilt operator, and the
	// solver-level rollback/recomputation totals.
	jobsRecovered   atomic.Uint64
	jobsRetried     atomic.Uint64
	rollbacks       atomic.Uint64
	recomputedIters atomic.Uint64
	inflight        atomic.Int64
	// Autotuning accounting: jobs admitted with at least one
	// auto-selected knob, and the auto-selected storage formats indexed
	// by op.Format.
	jobsAutotuned    atomic.Uint64
	autotunedFormats [3]atomic.Uint64

	// Coalescer state: coalPending maps a coalesce key to the queued
	// leader job later batch-eligible arrivals merge into (entries leave
	// the map when a worker seals the leader). jobsCoalesced counts the
	// merged passengers, and the batchWidth atomics back the
	// abftd_batch_width histogram — one observation per executed solve,
	// width 1 included, so the batched fraction of traffic is readable
	// from the scrape.
	coalMu        sync.Mutex
	coalPending   map[string]*job
	jobsCoalesced atomic.Uint64
	batchWidths   [len(batchWidthBounds)]atomic.Uint64
	batchWidthSum atomic.Uint64
	batchWidthN   atomic.Uint64
}

// batchWidthBounds are the abftd_batch_width histogram buckets; the top
// bound is maxBatchWidth, so no observation lands past the last bucket.
var batchWidthBounds = [7]int{1, 2, 4, 8, 16, 32, 64}

// observeBatchWidth records the right-hand-side count of one executed
// solve into the abftd_batch_width histogram.
func (s *Server) observeBatchWidth(k int) {
	for i, b := range batchWidthBounds {
		if k <= b {
			s.batchWidths[i].Add(1)
			break
		}
	}
	s.batchWidthSum.Add(uint64(k))
	s.batchWidthN.Add(1)
}

// New builds and starts a service: the worker pool begins draining the
// queue and, with a positive ScrubInterval, the scrub daemon begins
// patrolling.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		log:         cfg.Logger,
		journal:     obs.NewJournal(cfg.EventJournal),
		hist:        make(map[string]*obs.Histogram, len(stages)),
		queue:       make(chan *job, cfg.QueueDepth),
		jobs:        make(map[string]*job),
		coalPending: make(map[string]*job),
		start:       time.Now(),
	}
	for _, st := range stages {
		s.hist[st] = &obs.Histogram{}
	}
	s.cache = newOperatorCache(cfg.CacheOperators, s.log)
	s.scrub = newScrubDaemon(s.cache, cfg.ScrubInterval, s.log, s.journal)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.scrub.Start()
	s.log.Info("service started",
		"workers", cfg.Workers, "queue", cfg.QueueDepth,
		"cache", cfg.CacheOperators, "scrub_interval", cfg.ScrubInterval)
	return s
}

// observe records one stage latency into its /metrics histogram.
func (s *Server) observe(stage string, d time.Duration) { s.hist[stage].Observe(d) }

// Events snapshots the fault-event journal (oldest first) and the
// lifetime event count, the programmatic equivalent of GET /v1/events.
func (s *Server) Events() ([]obs.Event, uint64) { return s.journal.Snapshot() }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close stops accepting work, drains the queue, waits for running
// solves and halts the scrub daemon. The Server must not be used after.
func (s *Server) Close() {
	s.Shutdown(context.Background())
}

// Shutdown is Close with a drain deadline: new solves are rejected
// immediately, queued and running jobs drain until ctx expires, and the
// scrub daemon stops after the pool (so it is never flushed while jobs
// still share cached operators). It returns ctx.Err when the deadline
// cut the drain short — workers then finish their in-flight jobs in the
// background — and nil on a complete drain. Safe to call concurrently
// with Close; the first caller wins.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	// The exclusive lock waits out any enqueue that passed the closed
	// check before the swap; new ones see closed first.
	s.qmu.Lock()
	close(s.queue)
	s.qmu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.scrub.Stop()
	s.log.Info("service shut down", "drained", err == nil)
	return err
}

// CacheStats exposes operator-cache activity (also on /metrics).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// ScrubStats exposes scrub-daemon activity (also on /metrics).
func (s *Server) ScrubStats() ScrubStats { return s.scrub.Stats() }

// ScrubNow runs one synchronous scrub pass over the resident operators,
// regardless of the background interval.
func (s *Server) ScrubNow() { s.scrub.Pass() }

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

// Submit enqueues a solve programmatically (the in-process equivalent
// of POST /v1/solve) and returns the job id.
func (s *Server) Submit(req SolveRequest) (string, error) {
	j, err := s.admit(req, nil)
	if err != nil {
		return "", err
	}
	if err := s.enqueue(j); err != nil {
		return "", err
	}
	return j.id, nil
}

// Wait blocks until the job finishes and returns its final status.
func (s *Server) Wait(id string) (JobStatus, error) {
	s.jobMu.RLock()
	j, ok := s.jobs[id]
	s.jobMu.RUnlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("service: unknown job %q", id)
	}
	<-j.done
	return j.status(), nil
}

// admit validates a request and prepares the job: symbolic names are
// resolved against the registries and the operator source is addressed
// by the digest of its bytes, so every usage error surfaces before
// queueing. A digest the cache knows brings its remembered profile and
// the source is not read; an unknown one is assembled, checked and
// profiled here. quoted is an HTTP request's matrix_market value still
// in its JSON quoting (nil through Submit).
func (s *Server) admit(req SolveRequest, quoted []byte) (*job, error) {
	admitStart := time.Now()
	params, err := req.resolve(s.cfg)
	if err != nil {
		return nil, err
	}
	digest, err := sourceDigest(&req.Matrix, quoted)
	if err != nil {
		return nil, err
	}
	var plain *csr.Matrix
	prof, known := s.cache.profile(digest)
	if !known {
		if plain, err = s.assemble(&req.Matrix, quoted); err != nil {
			return nil, err
		}
		if plain.Rows() != plain.Cols32() {
			return nil, fmt.Errorf("matrix is %dx%d; iterative solvers need a square operator",
				plain.Rows(), plain.Cols32())
		}
		prof = profileMatrix(plain)
	}
	rows := prof.Rows
	if len(req.B) > 0 && len(req.B) != rows {
		return nil, fmt.Errorf("rhs length %d does not match %d rows", len(req.B), rows)
	}
	if len(req.RHSBatch) > 0 {
		if len(req.B) > 0 {
			return nil, fmt.Errorf("b and rhs_batch are mutually exclusive")
		}
		if len(req.RHSBatch) > maxBatchWidth {
			return nil, fmt.Errorf("rhs_batch width %d exceeds the maximum %d", len(req.RHSBatch), maxBatchWidth)
		}
		for i, col := range req.RHSBatch {
			if len(col) != rows {
				return nil, fmt.Errorf("rhs_batch[%d] length %d does not match %d rows", i, len(col), rows)
			}
		}
	}
	// Admission-time autotuning: after shard finalization has clamped
	// the requested band count (so a shard format that no longer applies
	// cannot pin the layout), knobs the request left unpinned are filled
	// from the operator's structural profile. A second finalization then
	// re-establishes the shard/format/knob invariants over the tuned
	// values, so they flow through exactly the clamping and cache-key
	// path a pinned request takes.
	params.finalizeShards(rows)
	tuned := autotune(&req, &params, prof, s.cfg)
	if tuned != nil {
		params.finalizeShards(rows)
		if tuned.Shards > 0 {
			// Echo the post-clamp band count (0 when clamping collapsed
			// the sharded solve back to a single band).
			tuned.Shards = params.shards
		}
	}
	key := operatorKey(digest, params)
	if req.Matrix.Operator != "" && !s.cache.has(key) {
		// The source is known but no operator under these knobs is
		// resident, and a handle carries nothing to build one from.
		return nil, unknownOperator(digest)
	}
	j := &job{
		id:        fmt.Sprintf("j%08d", s.nextID.Add(1)),
		req:       req,
		quoted:    quoted,
		params:    params,
		plain:     plain,
		digest:    digest,
		profile:   prof,
		tuned:     tuned,
		key:       key,
		state:     StateQueued,
		submitted: admitStart,
		done:      make(chan struct{}),
	}
	if len(req.RHSBatch) == 0 && batchKind(params.kind) {
		// A batch-eligible single: later identical arrivals may coalesce
		// into this job's solve (or this one into theirs) while queued.
		j.coalKey = coalesceKey(j.key, params)
	}
	j.trace = obs.NewTrace(j.id)
	detail := ""
	if tuned != nil {
		detail = tuned.Reason
	}
	j.trace.Add(StageAdmission, admitStart, time.Since(admitStart), detail)
	s.observe(StageAdmission, time.Since(admitStart))
	return j, nil
}

// assemble reads an operator source into the unprotected CSR matrix it
// describes — the one place the service parses a document, generates a
// grid or sorts triplets, counted in CacheStats.SourceParses.
func (s *Server) assemble(spec *MatrixSpec, quoted []byte) (*csr.Matrix, error) {
	if spec.Operator != "" {
		return nil, unknownOperator(spec.Operator)
	}
	s.cache.countParse()
	if quoted == nil {
		return spec.Build()
	}
	if doc, ok := unquoteDocument(quoted); ok {
		return mm.ReadBytesLimit(doc, maxDim)
	}
	var doc string
	if err := json.Unmarshal(quoted, &doc); err != nil {
		return nil, fmt.Errorf("bad request body: %w", err)
	}
	return mm.ReadStringLimit(doc, maxDim)
}

// errQueueFull reports a saturated job queue: HTTP 429 with a
// Retry-After of queueRetrySeconds, so a client backs off and tries
// again instead of treating the answer as an outage (503 is shutdown).
var errQueueFull = fmt.Errorf("service: job queue full")

// queueRetrySeconds is the Retry-After a full queue answers with.
const queueRetrySeconds = "1"

func (s *Server) enqueue(j *job) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed.Load() {
		return fmt.Errorf("service: server closed")
	}
	if s.tryCoalesce(j) {
		return nil
	}
	s.jobMu.Lock()
	s.jobs[j.id] = j
	s.jobMu.Unlock()
	select {
	case s.queue <- j:
		s.inflight.Add(1)
		if j.coalKey != "" {
			// Queued and batch-eligible: register as the coalesce leader
			// for its key unless a worker picked it up already.
			s.coalMu.Lock()
			if !j.sealed {
				s.coalPending[j.coalKey] = j
			}
			s.coalMu.Unlock()
		}
		if j.params.shards > 1 {
			s.jobsSharded.Add(1)
		}
		if j.params.reliability == solvers.ReliabilitySelective {
			s.jobsSelective.Add(1)
		}
		if j.tuned != nil {
			s.jobsAutotuned.Add(1)
			if j.tuned.Format != "" {
				s.autotunedFormats[j.params.format].Add(1)
			}
		}
		s.log.Info("job queued",
			"job", j.id, "operator", opShort(j.key), "solver", j.params.kind.String(),
			"rows", j.profile.Rows, "shards", j.params.shards, "autotuned", j.tuned != nil)
		return nil
	default:
		s.jobMu.Lock()
		delete(s.jobs, j.id)
		s.jobMu.Unlock()
		s.jobsRejected.Add(1)
		s.log.Warn("job rejected, queue full", "job", j.id, "queue_depth", s.cfg.QueueDepth)
		return errQueueFull
	}
}

// tryCoalesce merges a batch-eligible single-RHS job into an unsealed
// queued leader with the same coalesce key, instead of taking a queue
// slot: the leader's worker solves both right-hand sides through one
// batched solve and splits the results back per job. Reports whether
// the job was attached (its lifecycle is then driven by the leader).
func (s *Server) tryCoalesce(j *job) bool {
	if j.coalKey == "" {
		return false
	}
	s.coalMu.Lock()
	leader := s.coalPending[j.coalKey]
	if leader == nil || leader.sealed || len(leader.passengers)+2 > maxBatchWidth {
		s.coalMu.Unlock()
		return false
	}
	leader.passengers = append(leader.passengers, j)
	s.coalMu.Unlock()
	s.jobMu.Lock()
	s.jobs[j.id] = j
	s.jobMu.Unlock()
	s.inflight.Add(1)
	s.jobsCoalesced.Add(1)
	j.trace.Add(StageCoalesce, j.submitted, time.Since(j.submitted),
		fmt.Sprintf("coalesced into %s", leader.id))
	s.observe(StageCoalesce, time.Since(j.submitted))
	s.log.Info("job coalesced", "job", j.id, "leader", leader.id,
		"operator", opShort(j.key), "solver", j.params.kind.String())
	return true
}

// seal closes a picked-up job to further coalescing and returns its
// solve group: the job itself plus every passenger that attached while
// it waited in the queue.
func (s *Server) seal(j *job) []*job {
	s.coalMu.Lock()
	j.sealed = true
	if j.coalKey != "" && s.coalPending[j.coalKey] == j {
		delete(s.coalPending, j.coalKey)
	}
	group := append([]*job{j}, j.passengers...)
	s.coalMu.Unlock()
	if len(group) > 1 {
		j.trace.Add(StageCoalesce, time.Now(), 0,
			fmt.Sprintf("leading a coalesced batch of %d jobs", len(group)))
	}
	return group
}

// retire records a finished job and forgets the oldest ones beyond the
// history bound.
func (s *Server) retire(j *job) {
	s.inflight.Add(-1)
	s.jobMu.Lock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.JobHistory {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.jobMu.Unlock()
}

// --------------------------------------------------------------------------
// HTTP handlers

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server shutting down"))
		return
	}
	var req SolveRequest
	var quoted []byte
	body, err := readBody(w, r, maxBody)
	if err == nil {
		req, quoted, err = decodeSolveRequest(body)
	}
	if err != nil {
		code := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad request body: %w", err))
		return
	}
	j, err := s.admit(req, quoted)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrUnknownOperator) {
			code = http.StatusNotFound
		}
		writeError(w, code, err)
		return
	}
	if err := s.enqueue(j); err != nil {
		code := http.StatusServiceUnavailable
		if errors.Is(err, errQueueFull) {
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", queueRetrySeconds)
		}
		writeError(w, code, err)
		return
	}
	wait := req.Wait
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		wait = true
	}
	if wait {
		<-j.done
		writeJSON(w, http.StatusOK, j.status())
		// The caller has its answer; drop the retained solution vector
		// so a high-rate waited workload cannot pin every X until
		// history eviction. The status (and any later poll) keeps the
		// scalar outcome.
		j.dropSolution()
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobMu.RLock()
	j, ok := s.jobs[id]
	s.jobMu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleJobTrace serves the job's full solve trace: every stage span in
// recording order, the solver's residual trajectory and the fault
// counters the job accumulated.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.jobMu.RLock()
	j, ok := s.jobs[id]
	s.jobMu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, j.trace.Snapshot())
}

// eventsBody is the JSON body of GET /v1/events.
type eventsBody struct {
	// Events holds the retained fault events, oldest first.
	Events []obs.Event `json:"events"`
	// Total is the lifetime event count; Total - len(Events) events
	// have been dropped by the bounded ring.
	Total   uint64 `json:"total"`
	Dropped uint64 `json:"dropped"`
}

// handleEvents serves the fault-event journal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, total := s.journal.Snapshot()
	writeJSON(w, http.StatusOK, eventsBody{
		Events:  events,
		Total:   total,
		Dropped: total - uint64(len(events)),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
		"jobs_inflight":  s.inflight.Load(),
		"cache_entries":  s.cache.Stats().Entries,
	})
}
