package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/mm"
	"abft/internal/op"
	"abft/internal/solvers"
)

// matrixMarketOf serialises a matrix to an in-memory MatrixMarket
// document, the form solve requests embed.
func matrixMarketOf(t *testing.T, m *csr.Matrix) string {
	t.Helper()
	var buf bytes.Buffer
	if err := mm.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func postSolve(t *testing.T, url string, req SolveRequest, wait bool) (JobStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	target := url + "/v1/solve"
	if wait {
		target += "?wait=1"
	}
	resp, err := http.Post(target, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp
}

// directSolve reproduces a request outside the service: a fresh
// protected operator and the same solver configuration, the reference
// each service answer must match.
func directSolve(t *testing.T, plain *csr.Matrix, req SolveRequest) []float64 {
	t.Helper()
	format, err := op.ParseFormat(req.Format)
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := core.ParseScheme(req.Scheme)
	if err != nil {
		t.Fatal(err)
	}
	rowptr, err := core.ParseScheme(req.RowPtrScheme)
	if err != nil {
		t.Fatal(err)
	}
	vectors, err := core.ParseScheme(req.VectorScheme)
	if err != nil {
		t.Fatal(err)
	}
	kind, err := solvers.ParseKind(req.Solver)
	if err != nil {
		t.Fatal(err)
	}
	m, err := op.New(format, plain, op.Config{Scheme: scheme, RowPtrScheme: rowptr})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCounters(&core.Counters{})
	var b *core.Vector
	if len(req.B) > 0 {
		b = core.VectorFromSlice(req.B, vectors)
	} else {
		b = core.NewVector(plain.Rows(), vectors)
		b.Fill(1)
	}
	x := core.NewVector(plain.Rows(), vectors)
	workers := req.Workers
	if workers < 1 {
		workers = 1
	}
	res, err := solvers.Solve(kind, solvers.MatrixOperator{M: m, Workers: workers}, x, b, solvers.Options{
		Tol:         req.Tol,
		RelativeTol: req.RelativeTol,
		MaxIter:     req.MaxIter,
		Workers:     workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("direct solve did not converge (%d iterations)", res.Iterations)
	}
	out := make([]float64, plain.Rows())
	if err := x.CopyTo(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEndToEndConcurrentSolves is the acceptance scenario: the service
// runs in-process, 8 concurrent jobs arrive for two distinct matrices
// under mixed formats, schemes and solvers, every solution matches a
// direct solver run, and the cache encodes each operator exactly once.
// The suite is exercised under -race in CI, so the shared-operator
// concurrency (one immutable ProtectedMatrix serving many jobs while
// the scrub daemon patrols) is checked by the race detector too.
func TestEndToEndConcurrentSolves(t *testing.T) {
	srv := New(Config{Workers: 8, ScrubInterval: time.Millisecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Matrix A arrives as a grid spec; matrix B as an inline
	// MatrixMarket document of a different operator.
	gridA := &GridSpec{NX: 20, NY: 20}
	plainA := csr.Laplacian2D(20, 20)
	plainB := csr.Laplacian2D(16, 12)
	mmB := matrixMarketOf(t, plainB)

	// A varied right-hand side: the all-ones default is an eigenvector
	// of the Laplacian (constant row sums), degenerate for CG.
	rhs := func(n int) []float64 {
		b := make([]float64, n)
		for i := range b {
			b[i] = float64(i%13) - 6
		}
		return b
	}
	reqA := SolveRequest{
		Matrix:       MatrixSpec{Grid: gridA},
		Format:       "csr",
		Scheme:       "secded64",
		RowPtrScheme: "secded64",
		Solver:       "cg",
		B:            rhs(plainA.Rows()),
		Tol:          1e-10,
	}
	reqB := SolveRequest{
		Matrix: MatrixSpec{MatrixMarket: mmB},
		Format: "sellcs",
		Scheme: "crc32c",
		Solver: "cg",
		B:      rhs(plainB.Rows()),
		Tol:    1e-10,
	}

	// 8 jobs, 4 per matrix, varying the knobs that do NOT shape the
	// protected operator (solver, workers, vector protection) so the
	// two operator keys stay shared across all of them.
	var jobs []SolveRequest
	for i := 0; i < 4; i++ {
		a, b := reqA, reqB
		a.Workers = 1 + i%2
		b.Workers = 1 + (i+1)%2
		if i%2 == 0 {
			a.VectorScheme = "secded64"
			b.VectorScheme = "sed"
		}
		if i == 3 {
			// Only the larger operator: PPCG's spectrum estimation needs
			// more CG iterations than the small one takes to converge.
			a.Solver = "ppcg"
		}
		jobs = append(jobs, a, b)
	}

	type outcome struct {
		req SolveRequest
		st  JobStatus
	}
	results := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	for i, req := range jobs {
		wg.Add(1)
		go func(i int, req SolveRequest) {
			defer wg.Done()
			st, resp := postSolve(t, ts.URL, req, true)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("job %d: status %d", i, resp.StatusCode)
				return
			}
			results[i] = outcome{req: req, st: st}
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	hits := 0
	for i, o := range results {
		if o.st.State != StateDone {
			t.Fatalf("job %d: state %s (error %q)", i, o.st.State, o.st.Error)
		}
		if !o.st.Result.Converged {
			t.Fatalf("job %d did not converge", i)
		}
		if o.st.Result.CacheHit {
			hits++
		}
		plain := plainA
		if o.req.Matrix.MatrixMarket != "" {
			plain = plainB
		}
		want := directSolve(t, plain, o.req)
		got := o.st.Result.X
		if len(got) != len(want) {
			t.Fatalf("job %d: solution length %d want %d", i, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("job %d: x[%d] = %g, direct solver got %g", i, k, got[k], want[k])
			}
		}
	}

	cs := srv.CacheStats()
	if cs.Builds != 2 {
		t.Fatalf("cache builds = %d, want exactly 2 (one per distinct operator)", cs.Builds)
	}
	// Every executed solve either built or hit — but queued jobs with
	// identical operator and options may have coalesced into a shared
	// batched execution instead of taking a cache lookup of their own.
	coal := srv.jobsCoalesced.Load()
	if cs.Hits+coal != uint64(len(jobs))-2 {
		t.Fatalf("cache hits = %d with %d coalesced jobs, want %d executions beyond the builds",
			cs.Hits, coal, len(jobs)-2)
	}
	// A hitting execution marks every job it carried as a cache hit, so
	// at least one job reports each recorded hit.
	if hits < int(cs.Hits) {
		t.Fatalf("%d jobs reported cache_hit, below the cache's %d hits", hits, cs.Hits)
	}
	if cs.Entries != 2 {
		t.Fatalf("cache entries = %d, want 2", cs.Entries)
	}
}

func TestAsyncSubmitAndPoll(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := SolveRequest{
		Matrix: MatrixSpec{Grid: &GridSpec{NX: 8, NY: 8}},
		Scheme: "sed",
		Tol:    1e-8,
	}
	st, resp := postSolve(t, ts.URL, req, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", resp.StatusCode)
	}
	if st.ID == "" {
		t.Fatal("no job id")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var cur JobStatus
		if err := json.NewDecoder(r.Body).Decode(&cur); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if cur.State == StateDone {
			if !cur.Result.Converged {
				t.Fatal("job did not converge")
			}
			break
		}
		if cur.State == StateFailed {
			t.Fatalf("job failed: %s", cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", cur.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRequestValidation(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body string) (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp, eb.Error
	}

	cases := []struct {
		name, body, wantInError string
	}{
		{"bad json", "{", "bad request body"},
		{"unknown field", `{"matrx": {}}`, "bad request body"},
		{"no matrix source", `{"matrix": {}}`, "exactly one"},
		{"two matrix sources", `{"matrix": {"grid": {"nx":4,"ny":4}, "matrix_market": "x"}}`, "exactly one"},
		{"unknown scheme", `{"matrix": {"grid": {"nx":4,"ny":4}}, "scheme": "tmr"}`, "choices: none, sed, secded64, secded128, crc32c"},
		{"unknown format", `{"matrix": {"grid": {"nx":4,"ny":4}}, "format": "ellpack"}`, "choices: csr, coo, sellcs"},
		{"unknown solver", `{"matrix": {"grid": {"nx":4,"ny":4}}, "solver": "gmres"}`, "choices: cg, jacobi, chebyshev, ppcg"},
		{"non-square", `{"matrix": {"rows": 2, "cols": 3, "entries": [{"row":0,"col":0,"val":1},{"row":1,"col":1,"val":1}]}}`, "square"},
		{"bad rhs length", `{"matrix": {"grid": {"nx":4,"ny":4}}, "b": [1,2,3]}`, "rhs length"},
		{"bad matrix market", `{"matrix": {"matrix_market": "hello"}}`, "MatrixMarket"},
	}
	for _, c := range cases {
		resp, msg := post(c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		if !strings.Contains(msg, c.wantInError) {
			t.Errorf("%s: error %q does not mention %q", c.name, msg, c.wantInError)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("status field %v", body["status"])
	}
}

// TestSolverFaultSurfacesAsFailedJob verifies a detected uncorrectable
// fault reaches the client as a failed job flagged fault=true, not as a
// crash: the SED path detects but cannot correct.
func TestSolverFaultSurfacesAsFailedJob(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()

	req := SolveRequest{
		Matrix: MatrixSpec{Grid: &GridSpec{NX: 8, NY: 8}},
		Scheme: "sed",
		Tol:    1e-8,
	}
	// Prime the cache, then corrupt the resident operator and solve
	// again: the kernel's integrity check must detect the flip.
	id, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err := srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("priming solve: %s (%s)", st.State, st.Error)
	}
	entries := srv.cache.resident()
	if len(entries) != 1 {
		t.Fatalf("resident operators = %d, want 1", len(entries))
	}
	e := entries[0]
	e.mu.Lock()
	e.m.RawVals()[3] = flipFloat(e.m.RawVals()[3], 21)
	e.mu.Unlock()

	id, err = srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if !st.Fault {
		t.Fatalf("failure not flagged as an ABFT fault: %s", st.Error)
	}

	// The solve-path fault evicts the poisoned operator even with the
	// scrub daemon disabled, so the next identical request rebuilds a
	// clean operator and succeeds.
	if got := srv.CacheStats().EvictedFault; got != 1 {
		t.Fatalf("fault evictions = %d, want 1", got)
	}
	id, err = srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	st, err = srv.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("rebuild solve: %s (%s)", st.State, st.Error)
	}
	if st.Result.CacheHit {
		t.Fatal("rebuild reported as cache hit")
	}
}

// TestSharedOperatorCorrectableFlipConcurrentSolves exercises the
// shared-read discipline under the race detector: a correctable flip
// sits in a cached SECDED64 operator while several jobs stream it
// concurrently. Apply must not commit the repair (the jobs hold only
// read locks) yet every solve succeeds; the scrub daemon, as the single
// writer, repairs the storage afterwards.
func TestSharedOperatorCorrectableFlipConcurrentSolves(t *testing.T) {
	srv := New(Config{Workers: 6})
	defer srv.Close()

	req := SolveRequest{
		Matrix:       MatrixSpec{Grid: &GridSpec{NX: 12, NY: 12}},
		Scheme:       "secded64",
		RowPtrScheme: "secded64",
		B: func() []float64 {
			b := make([]float64, 144)
			for i := range b {
				b[i] = float64(i%7) - 3
			}
			return b
		}(),
		Tol: 1e-8,
	}
	e := primeOperator(t, srv, req)

	e.mu.Lock()
	raw := e.m.RawVals()
	corrupted := flipBits(raw[9], 1<<30)
	raw[9] = corrupted
	e.mu.Unlock()

	// Two of the six concurrent jobs use the jacobi solver, whose
	// preconditioning path reads the operator diagonal: the service must
	// serve the build-time verified copy, never a committing CheckAll
	// against the shared storage.
	jacobi := req
	jacobi.Solver = "jacobi"
	jacobi.Tol = 1e-6

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(r SolveRequest) {
			defer wg.Done()
			id, err := srv.Submit(r)
			if err != nil {
				t.Error(err)
				return
			}
			st, err := srv.Wait(id)
			if err != nil {
				t.Error(err)
				return
			}
			if st.State != StateDone {
				t.Errorf("shared solve (%s): %s (%s)", r.Solver, st.State, st.Error)
			}
		}(map[bool]SolveRequest{true: jacobi, false: req}[i < 2])
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// No solve committed the repair...
	if got := e.m.RawVals()[9]; got != corrupted {
		t.Fatalf("a shared Apply wrote to operator storage (val %x)", math.Float64bits(got))
	}
	// ...the scrub pass, as the single writer, does.
	srv.ScrubNow()
	if got := e.m.RawVals()[9]; got == corrupted {
		t.Fatal("scrub pass did not repair the flip")
	}
	if srv.ScrubStats().Corrected == 0 {
		t.Fatal("scrub stats report no correction")
	}
}

func TestQueueFullRejects(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	// Stall the single worker with a deliberately slow job so the next
	// submissions pile into the 1-deep queue.
	slow := SolveRequest{
		Matrix:  MatrixSpec{Grid: &GridSpec{NX: 48, NY: 48}},
		Scheme:  "crc32c",
		Solver:  "jacobi",
		Tol:     1e-12,
		MaxIter: 200000,
	}
	// Jacobi is not batch-eligible, so every probe takes a real queue
	// slot instead of coalescing into the first queued duplicate.
	quick := SolveRequest{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, Solver: "jacobi", Tol: 1e-8}

	first, err := srv.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the queue, then expect rejection. The worker may drain one
	// job between submissions, so allow a couple of attempts.
	rejected := false
	for i := 0; i < 64 && !rejected; i++ {
		if _, err := srv.Submit(quick); err == errQueueFull {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("queue never rejected while saturated")
	}
	if _, err := srv.Wait(first); err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

// TestQueueFullAnswers429: over HTTP a saturated queue answers 429 Too
// Many Requests with a Retry-After header — a load signal to back off,
// not the 503 of a server shutting down.
func TestQueueFullAnswers429(t *testing.T) {
	srv := New(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	first, err := srv.Submit(SolveRequest{
		Matrix: MatrixSpec{Grid: &GridSpec{NX: 48, NY: 48}},
		Scheme: "crc32c", Solver: "jacobi", Tol: 1e-12, MaxIter: 200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Asynchronous, non-coalescing posts: each takes a queue slot until
	// one finds the queue full.
	const quick = `{"matrix": {"grid": {"nx": 4, "ny": 4}}, "solver": "jacobi", "tol": 1e-8}`
	var resp *http.Response
	for i := 0; i < 64; i++ {
		r, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(quick))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			resp = r
			break
		}
	}
	if resp == nil {
		t.Fatal("queue never rejected while saturated")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full queue answered %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != queueRetrySeconds {
		t.Fatalf("Retry-After %q, want %q", got, queueRetrySeconds)
	}
	if _, err := srv.Wait(first); err != nil {
		t.Fatal(err)
	}
	srv.Close()
}

func flipFloat(x float64, bit int) float64 {
	return flipBits(x, 1<<uint(bit))
}

// TestDeclaredSizeLimits sends three bodies of under a hundred bytes
// that declare operators no request body could describe — a grid, a
// MatrixMarket size line and an entries list — and gets 400 naming the
// limit for each, before anything of the declared size is allocated;
// the next normal request still succeeds.
func TestDeclaredSizeLimits(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	for body, want := range map[string]string{
		`{"matrix":{"grid":{"nx":100000,"ny":100000}}}`: fmt.Sprintf("more than %d entries", maxGridEntries),
		`{"matrix":{"matrix_market":"%%MatrixMarket matrix coordinate real general\n1099511627776 1099511627776 1\n1 1 1\n"}}`: fmt.Sprintf("limit of %d rows", maxDim),
		`{"matrix":{"entries":[{"row":1099511627776,"col":0,"val":1}]}}`:                                                       fmt.Sprintf("limit of %d rows", maxDim),
	} {
		if code, _, msg := postBody(t, srv, []byte(body)); code != http.StatusBadRequest || !strings.Contains(msg, want) {
			t.Errorf("%s: status %d, error %q, want 400 naming %q", body, code, msg, want)
		}
	}
	code, st, msg := postBody(t, srv, []byte(`{"matrix":{"grid":{"nx":8,"ny":8}},"tol":1e-8}`))
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("normal request after the refusals: status %d, state %v, error %q", code, st.State, msg)
	}
}
