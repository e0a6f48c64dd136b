package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"abft/internal/obs"
	"abft/internal/op"
	"abft/internal/par"
)

// handleMetrics renders the service state in the Prometheus text
// exposition format — hand-written, since the repository takes no
// dependencies beyond the standard library.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cs := s.cache.Stats()
	ss := s.scrub.Stats()
	oc := s.cache.OperatorCounters()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}

	gauge("abftd_uptime_seconds", "Seconds since the service started.",
		time.Since(s.start).Seconds())
	gauge("abftd_workers", "Solve worker-pool size.", float64(s.cfg.Workers))
	// Kernel-pool health: the resident goroutines every parallel kernel
	// dispatches to, and the cumulative multi-range batches dispatched.
	// Workers stays zero until the first parallel kernel runs; on a
	// single-processor host every kernel collapses to the serial fast
	// path and the dispatch counter legitimately never moves.
	kpw, kpd := par.Stats()
	gauge("abftd_kernel_pool_workers", "Resident kernel worker-pool goroutines.", float64(kpw))
	counter("abftd_kernel_dispatch_total", "Multi-range kernel batches dispatched to the resident worker pool.", kpd)
	gauge("abftd_queue_capacity", "Job queue capacity.", float64(s.cfg.QueueDepth))
	gauge("abftd_jobs_inflight", "Jobs queued or running.", float64(s.inflight.Load()))

	fmt.Fprintf(w, "# HELP abftd_jobs_total Finished jobs by final state.\n")
	fmt.Fprintf(w, "# TYPE abftd_jobs_total counter\n")
	fmt.Fprintf(w, "abftd_jobs_total{state=\"done\"} %d\n", s.jobsDone.Load())
	fmt.Fprintf(w, "abftd_jobs_total{state=\"failed\"} %d\n", s.jobsFailed.Load())
	counter("abftd_jobs_rejected_total", "Jobs rejected by a full queue.", s.jobsRejected.Load())
	counter("abftd_jobs_sharded_total", "Jobs enqueued to solve over a sharded operator.", s.jobsSharded.Load())
	counter("abftd_jobs_selective_total", "Jobs admitted with selective (unverified inner solve) reliability.", s.jobsSelective.Load())
	counter("abftd_jobs_autotuned_total", "Jobs admitted with at least one auto-selected knob.", s.jobsAutotuned.Load())
	fmt.Fprintf(w, "# HELP abftd_autotune_format_total Auto-selected storage formats at admission.\n")
	fmt.Fprintf(w, "# TYPE abftd_autotune_format_total counter\n")
	// Emit the label series in sorted label order, not declaration
	// order, so the scrape output is byte-stable run to run.
	formats := make([]struct {
		name string
		n    uint64
	}, len(s.autotunedFormats))
	for f := range s.autotunedFormats {
		formats[f].name = op.Format(f).String()
		formats[f].n = s.autotunedFormats[f].Load()
	}
	sort.Slice(formats, func(a, b int) bool { return formats[a].name < formats[b].name })
	for _, f := range formats {
		fmt.Fprintf(w, "abftd_autotune_format_total{format=%q} %d\n", f.name, f.n)
	}
	counter("abftd_jobs_coalesced_total", "Queued single-RHS jobs merged into another job's batched solve.", s.jobsCoalesced.Load())
	// Batch-width histogram, hand-rendered over the fixed power-of-two
	// buckets: one observation per executed solve, width 1 included, so
	// the batched fraction of traffic is readable from the scrape.
	fmt.Fprintf(w, "# HELP abftd_batch_width Right-hand sides carried per executed solve (1 = solo).\n")
	fmt.Fprintf(w, "# TYPE abftd_batch_width histogram\n")
	var cum uint64
	for i, b := range batchWidthBounds {
		cum += s.batchWidths[i].Load()
		fmt.Fprintf(w, "abftd_batch_width_bucket{le=\"%d\"} %d\n", b, cum)
	}
	fmt.Fprintf(w, "abftd_batch_width_bucket{le=\"+Inf\"} %d\n", s.batchWidthN.Load())
	fmt.Fprintf(w, "abftd_batch_width_sum %d\n", s.batchWidthSum.Load())
	fmt.Fprintf(w, "abftd_batch_width_count %d\n", s.batchWidthN.Load())
	counter("abftd_jobs_recovered_total", "Jobs that finished after solver checkpoint rollbacks.", s.jobsRecovered.Load())
	counter("abftd_jobs_retried_total", "Jobs retried against a rebuilt operator after a fault survived solver recovery.", s.jobsRetried.Load())
	counter("abftd_solver_rollbacks_total", "Solver checkpoint rollbacks across all jobs.", s.rollbacks.Load())
	counter("abftd_solver_recomputed_iterations_total", "Solver iterations re-run after rollbacks across all jobs.", s.recomputedIters.Load())

	gauge("abftd_cache_operators", "Resident protected operators.", float64(cs.Entries))
	gauge("abftd_cache_shards", "Resident shards summed over all operators (unsharded operators count one).", float64(cs.Shards))
	gauge("abftd_cache_preconditioners", "Resident named preconditioners (protected setup products; the Jacobi every operator keeps counts only when named).", float64(cs.Preconditioners))
	counter("abftd_cache_builds_total", "Protected operators encoded (cache misses).", cs.Builds)
	counter("abftd_cache_hits_total", "Solves served by a resident operator.", cs.Hits)
	counter("abftd_cache_build_errors_total", "Failed operator builds.", cs.BuildErrors)
	counter("abftd_cache_source_parses_total", "Operator sources read and assembled (admissions of an unknown digest, and builds for jobs admitted on a known one).", cs.SourceParses)
	fmt.Fprintf(w, "# HELP abftd_cache_evictions_total Operators evicted, by reason.\n")
	fmt.Fprintf(w, "# TYPE abftd_cache_evictions_total counter\n")
	fmt.Fprintf(w, "abftd_cache_evictions_total{reason=\"lru\"} %d\n", cs.EvictedLRU)
	fmt.Fprintf(w, "abftd_cache_evictions_total{reason=\"fault\"} %d\n", cs.EvictedFault)

	counter("abftd_scrub_passes_total", "Completed scrub-daemon patrol passes.", ss.Passes)
	counter("abftd_scrub_operators_scrubbed_total", "Operator scrubs performed.", ss.Scrubbed)
	counter("abftd_scrub_shards_scrubbed_total", "Shard-level scrubs performed (unsharded operators count one).", ss.Shards)
	counter("abftd_scrub_preconditioners_scrubbed_total", "Named-preconditioner scrubs performed (every resident Jacobi is scrubbed too, counted only when named).", ss.Preconditioners)
	counter("abftd_scrub_corrected_total", "Codewords repaired by the scrub daemon (operators, resident Jacobis and named preconditioners).", ss.Corrected)
	counter("abftd_scrub_faults_total", "Uncorrectable faults found by scrubbing operators, resident Jacobis and named preconditioners (each evicts).", ss.Faults)

	counter("abftd_operator_checks_total", "Codeword integrity checks across all cached operators.", oc.Checks)
	counter("abftd_operator_corrected_total", "Corrected errors across all cached operators.", oc.Corrected)
	counter("abftd_operator_detected_total", "Detected uncorrectable errors across all cached operators.", oc.Detected)
	counter("abftd_operator_bounds_total", "Range-check violations across all cached operators.", oc.Bounds)

	// Fault-event journal accounting, one series per event kind seen so
	// far (obs.Journal returns them sorted, so the scrape is stable).
	fmt.Fprintf(w, "# HELP abftd_fault_events_total Fault events recorded in the journal, by kind.\n")
	fmt.Fprintf(w, "# TYPE abftd_fault_events_total counter\n")
	for _, kc := range s.journal.Totals() {
		fmt.Fprintf(w, "abftd_fault_events_total{kind=%q} %d\n", kc.Kind, kc.Count)
	}

	// Per-stage latency histograms, native Prometheus rendering: p50/p99
	// per stage become scrapeable. Bucket bounds are the shared log
	// series of internal/obs.
	bounds := obs.HistBounds()
	fmt.Fprintf(w, "# HELP abftd_stage_duration_seconds Wall-clock latency of job lifecycle stages.\n")
	fmt.Fprintf(w, "# TYPE abftd_stage_duration_seconds histogram\n")
	for _, stage := range stages {
		h := s.hist[stage].Snapshot()
		for i, b := range bounds {
			fmt.Fprintf(w, "abftd_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n",
				stage, strconv.FormatFloat(b, 'g', -1, 64), h.Cumulative[i])
		}
		fmt.Fprintf(w, "abftd_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, h.Count)
		fmt.Fprintf(w, "abftd_stage_duration_seconds_sum{stage=%q} %g\n", stage, h.SumSeconds)
		fmt.Fprintf(w, "abftd_stage_duration_seconds_count{stage=%q} %d\n", stage, h.Count)
	}
}
