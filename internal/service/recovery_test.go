package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"abft/internal/core"
)

func recoveryRequest() SolveRequest {
	return SolveRequest{
		Matrix:       MatrixSpec{Grid: &GridSpec{NX: 8, NY: 8}},
		Scheme:       "sed",
		VectorScheme: "secded64",
		Recovery:     "rollback",
		Tol:          1e-8,
	}
}

// TestRecoveryResolution pins admission-time validation: unknown
// policies and option values that would iterate forever or not at all
// fail before touching the queue.
func TestRecoveryResolution(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()

	bad := []SolveRequest{
		{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, Recovery: "bogus"},
		{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, Recovery: "rollback", RecoveryInterval: -1},
		{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, MaxIter: -5},
		{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, Tol: -1e-9},
	}
	for _, req := range bad {
		if _, err := srv.Submit(req); err == nil {
			t.Fatalf("admitted invalid request %+v", req)
		}
	}
	// The canonical policies admit.
	for _, pol := range []string{"", "off", "rollback", "restart"} {
		req := recoveryRequest()
		req.Recovery = pol
		id, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("policy %q rejected: %v", pol, err)
		}
		st, err := srv.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("policy %q: %v %+v", pol, err, st)
		}
		if st.Result.Rollbacks != 0 || st.Result.Retried {
			t.Fatalf("fault-free solve reported recovery activity: %+v", st.Result)
		}
	}
}

// TestServiceRetriesFaultedJob drives the full service recovery ladder:
// a cached operator is corrupted beyond its scheme's correction
// capability, the next recovery-enabled solve faults on it, the entry
// is evicted, and the service retries the job once against a freshly
// built operator — turning what used to be a failed job into a
// successful, flagged one.
func TestServiceRetriesFaultedJob(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	e := primeOperator(t, srv, recoveryRequest())

	// One flip in SED-protected element storage: detected on the next
	// Apply, never correctable, invisible to solver-level rollback
	// (the corruption is resident, not dynamic).
	e.mu.Lock()
	e.m.RawVals()[5] = flipBits(e.m.RawVals()[5], 1<<37)
	e.mu.Unlock()

	id, err := srv.Submit(recoveryRequest())
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Result == nil {
		t.Fatalf("retry did not rescue the job: %+v", st)
	}
	if !st.Result.Retried {
		t.Fatal("result not flagged as retried")
	}
	if !st.Result.Converged {
		t.Fatalf("retried solve did not converge: %+v", st.Result)
	}
	if got := srv.CacheStats().EvictedFault; got != 1 {
		t.Fatalf("fault evictions = %d, want 1", got)
	}

	body := metricsBody(t, ts.URL)
	if line := metricLine(t, body, "abftd_jobs_retried_total"); !strings.HasSuffix(line, " 1") {
		t.Fatalf("retry not counted: %s", line)
	}
	// The recovery counters are exported even when zero.
	metricLine(t, body, "abftd_jobs_recovered_total")
	metricLine(t, body, "abftd_solver_rollbacks_total")
	metricLine(t, body, "abftd_solver_recomputed_iterations_total")
}

// TestRetryOffFailsJob pins the counterfactual: without a recovery
// policy the same resident corruption fails the job, as before.
func TestRetryOffFailsJob(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()

	req := recoveryRequest()
	req.Recovery = ""
	e := primeOperator(t, srv, req)
	e.mu.Lock()
	e.m.RawVals()[5] = flipBits(e.m.RawVals()[5], 1<<37)
	e.mu.Unlock()

	id, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !st.Fault {
		t.Fatalf("expected a faulted failure, got %+v", st)
	}
}

// TestShutdownDrainsAndRejects: Shutdown stops admission immediately,
// drains queued jobs to completion and reports a clean drain.
func TestShutdownDrainsAndRejects(t *testing.T) {
	srv := New(Config{Workers: 1, ScrubInterval: time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		id, err := srv.Submit(SolveRequest{
			Matrix: MatrixSpec{Grid: &GridSpec{NX: 10, NY: 10}},
			Scheme: "secded64",
			Tol:    1e-8,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain cut short: %v", err)
	}
	// Every accepted job ran to completion before Shutdown returned.
	for _, id := range ids {
		st, err := srv.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %s not drained: %v %+v", id, err, st)
		}
	}
	// Admission is closed on both the programmatic and HTTP paths.
	if _, err := srv.Submit(recoveryRequest()); err == nil {
		t.Fatal("Submit accepted after Shutdown")
	}
	resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
		strings.NewReader(`{"matrix": {"grid": {"nx": 4, "ny": 4}}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown solve status %d, want 503", resp.StatusCode)
	}
	// A second Shutdown (and Close) are no-ops.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	srv.Close()
}

// TestShutdownDeadlineExpires: an already-expired context reports the
// incomplete drain instead of blocking.
func TestShutdownDeadlineExpires(t *testing.T) {
	srv := New(Config{Workers: 1})
	for i := 0; i < 6; i++ {
		if _, err := srv.Submit(SolveRequest{
			Matrix: MatrixSpec{Grid: &GridSpec{NX: 16, NY: 16}},
			Tol:    1e-10,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Fatal("expired deadline reported a clean drain")
	}
}

// TestSolvePanicFailsOnlyItsJob pins the containment of a panicking
// solve: the job fails with the panic as its error and the stack in the
// leader's solve span, the one worker survives to finish the next job,
// and the entry's shared lock is released, so a scrub pass, which takes
// the exclusive one, returns.
func TestSolvePanicFailsOnlyItsJob(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	req := SolveRequest{Matrix: MatrixSpec{Grid: &GridSpec{NX: 6, NY: 6}}, Solver: "cg", Tol: 1e-8}

	srv.testStateHook = func(int, []*core.Vector) { panic("injected kernel panic") }
	id, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed || !strings.Contains(st.Error, "injected kernel panic") {
		t.Fatalf("panicking solve: state %s, error %q", st.State, st.Error)
	}
	srv.jobMu.RLock()
	trace := srv.jobs[id].trace.Snapshot()
	srv.jobMu.RUnlock()
	stack := false
	for _, sp := range trace.Spans {
		stack = stack || (sp.Stage == StageSolve && strings.Contains(sp.Detail, "runtime/debug.Stack"))
	}
	if !stack {
		t.Fatalf("no stack in the leader's solve span: %+v", trace.Spans)
	}

	srv.testStateHook = nil
	if id, err = srv.Submit(req); err != nil {
		t.Fatal(err)
	}
	if st, err = srv.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("job after the panic: state %s, error %q (%v)", st.State, st.Error, err)
	}
	scrubbed := make(chan struct{})
	go func() {
		srv.ScrubNow()
		close(scrubbed)
	}()
	select {
	case <-scrubbed:
	case <-time.After(10 * time.Second):
		t.Fatal("scrub pass blocked: the panicking solve kept its read lock")
	}
}
