package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// batchRHS builds k distinct right-hand sides, each off the
// constant-row-sum eigenvector so CG has work to do.
func batchRHS(n, k int) [][]float64 {
	cols := make([][]float64, k)
	for j := range cols {
		col := make([]float64, n)
		for i := range col {
			col[i] = float64((i*13+j*7)%29) - 14
		}
		cols[j] = col
	}
	return cols
}

// TestRHSBatchSolve: a single request carrying rhs_batch solves all
// columns in one batched execution and every column is bit-exact
// against an independent single-RHS solve of the same system.
func TestRHSBatchSolve(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	plain := csr.Laplacian2D(12, 10)
	cols := batchRHS(plain.Rows(), 3)
	req := SolveRequest{
		Matrix:       MatrixSpec{Grid: &GridSpec{NX: 12, NY: 10}},
		Format:       "sellcs",
		Scheme:       "secded64",
		VectorScheme: "secded64",
		Solver:       "cg",
		RHSBatch:     cols,
		Tol:          1e-10,
	}
	st, resp := postSolve(t, ts.URL, req, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if st.State != StateDone {
		t.Fatalf("state %s (error %q)", st.State, st.Error)
	}
	res := st.Result
	if len(res.X) != 0 {
		t.Fatalf("batched job filled scalar X (%d entries)", len(res.X))
	}
	if res.BatchWidth != 3 || len(res.XBatch) != 3 || len(res.Columns) != 3 {
		t.Fatalf("batch shape: width %d, %d solutions, %d column results; want 3 of each",
			res.BatchWidth, len(res.XBatch), len(res.Columns))
	}
	if !res.Converged {
		t.Fatal("batched solve did not converge")
	}
	for j, col := range cols {
		single := req
		single.RHSBatch = nil
		single.B = col
		want := directSolve(t, plain, single)
		if len(res.XBatch[j]) != len(want) {
			t.Fatalf("column %d: %d entries, want %d", j, len(res.XBatch[j]), len(want))
		}
		for i := range want {
			if res.XBatch[j][i] != want[i] {
				t.Fatalf("column %d: x[%d] = %g, independent solve got %g",
					j, i, res.XBatch[j][i], want[i])
			}
		}
		if !res.Columns[j].Converged || res.Columns[j].Iterations == 0 {
			t.Fatalf("column %d result not converged: %+v", j, res.Columns[j])
		}
	}

	// The executed width lands in the batch-width histogram.
	body := metricsBody(t, ts.URL)
	for _, want := range []string{
		`abftd_batch_width_bucket{le="4"} 1`,
		"abftd_batch_width_sum 3",
		"abftd_batch_width_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRHSBatchValidation: malformed batch requests are rejected at
// admission with a 400, before any queueing.
func TestRHSBatchValidation(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	n := 4 * 4
	base := SolveRequest{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, Tol: 1e-8}

	both := base
	both.B = make([]float64, n)
	both.RHSBatch = batchRHS(n, 2)

	ragged := base
	ragged.RHSBatch = [][]float64{make([]float64, n), make([]float64, n-1)}

	wide := base
	wide.RHSBatch = batchRHS(n, maxBatchWidth+1)

	for name, req := range map[string]SolveRequest{
		"b and rhs_batch together": both,
		"ragged column length":     ragged,
		"width over the maximum":   wide,
	} {
		if _, resp := postSolve(t, ts.URL, req, true); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// pinWorker makes a one-worker server deterministic to coalesce on: it
// submits a stall job on a small operator of its own whose first solver
// iteration blocks in the state hook, returns once the worker is inside
// it, and hands back the function that removes the hook, releases the
// worker and waits for the stall job to finish. The jobs queued behind
// the stall then solve as a job submitted without a hook does: a state
// hook makes the solver run every update before the hook observes it,
// which moves vector check counts.
func pinWorker(t *testing.T, srv *Server) (release func()) {
	t.Helper()
	entered, unblock := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv.testStateHook = func(int, []*core.Vector) {
		once.Do(func() {
			close(entered)
			<-unblock
		})
	}
	id, err := srv.Submit(SolveRequest{Matrix: MatrixSpec{Grid: &GridSpec{NX: 6, NY: 6}}, Solver: "cg", Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	return func() {
		// Ordered before the worker's next solveGroup by the close.
		srv.testStateHook = nil
		close(unblock)
		if _, err := srv.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCoalescedSolves stalls the single worker, submits identical
// batch-eligible jobs, and checks they merge into one batched solve:
// passengers skip the queue, every job's answer stays bit-exact
// against an independent solve, and the merge is visible in traces
// and metrics.
func TestCoalescedSolves(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// The coalescable jobs all arrive while the worker is pinned.
	release := pinWorker(t, srv)

	plain := csr.Laplacian2D(12, 10)
	req := SolveRequest{
		Matrix:       MatrixSpec{Grid: &GridSpec{NX: 12, NY: 10}},
		Format:       "csr",
		Scheme:       "secded64",
		VectorScheme: "secded64",
		Solver:       "cg",
		B:            batchRHS(plain.Rows(), 1)[0],
		Tol:          1e-10,
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	release()
	want := directSolve(t, plain, req)
	for i, id := range ids {
		st, err := srv.Wait(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("job %d: state %s (error %q)", i, st.State, st.Error)
		}
		res := st.Result
		if !res.Coalesced || res.BatchWidth != 3 {
			t.Fatalf("job %d: coalesced=%t width=%d, want a 3-wide coalesced solve",
				i, res.Coalesced, res.BatchWidth)
		}
		if len(res.XBatch) != 0 || len(res.X) != len(want) {
			t.Fatalf("job %d: single-RHS job answered with %d batch columns, %d scalar entries",
				i, len(res.XBatch), len(res.X))
		}
		for k := range want {
			if res.X[k] != want[k] {
				t.Fatalf("job %d: x[%d] = %g, independent solve got %g", i, k, res.X[k], want[k])
			}
		}
	}
	if coal := srv.jobsCoalesced.Load(); coal != 2 {
		t.Fatalf("jobsCoalesced = %d, want 2 passengers", coal)
	}

	// Trace spans: the leader announces the batch, passengers record
	// where they went.
	leaders, passengers := 0, 0
	for _, id := range ids {
		srv.jobMu.RLock()
		j := srv.jobs[id]
		srv.jobMu.RUnlock()
		for _, sp := range j.trace.Snapshot().Spans {
			if sp.Stage != StageCoalesce {
				continue
			}
			switch {
			case strings.Contains(sp.Detail, "leading a coalesced batch of 3 jobs"):
				leaders++
			case strings.Contains(sp.Detail, "coalesced into "):
				passengers++
			default:
				t.Fatalf("job %s: unexpected %s span detail %q", id, StageCoalesce, sp.Detail)
			}
		}
	}
	if leaders != 1 || passengers != 2 {
		t.Fatalf("coalesce spans: %d leader, %d passenger; want 1 and 2", leaders, passengers)
	}

	// Metrics: the counter matches, the width histogram saw the stall
	// solo (width 1) and the merged execution (width 3).
	body := metricsBody(t, ts.URL)
	for _, want := range []string{
		"abftd_jobs_coalesced_total 2",
		`abftd_batch_width_bucket{le="1"} 1`,
		`abftd_batch_width_bucket{le="4"} 2`,
		"abftd_batch_width_sum 4",
		"abftd_batch_width_count 2",
		`abftd_stage_duration_seconds_count{stage="queue_coalesce"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
