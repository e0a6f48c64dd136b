package service

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"abft/internal/csr"
)

func TestProfileMatrix(t *testing.T) {
	// The grid generator stores a uniform 5 entries per row, so the
	// stencil profile is perfectly regular with the grid stride as its
	// bandwidth.
	p := profileMatrix(csr.Laplacian2D(3, 3))
	if p.Rows != 9 || p.NNZ != 45 {
		t.Fatalf("rows=%d nnz=%d, want 9/45", p.Rows, p.NNZ)
	}
	if p.MeanRowNNZ != 5 || p.RowLenCV != 0 {
		t.Fatalf("mean=%v cv=%v, want 5/0", p.MeanRowNNZ, p.RowLenCV)
	}
	if p.Bandwidth != 3 {
		t.Fatalf("bandwidth = %d, want 3", p.Bandwidth)
	}

	// A hand-built irregular matrix: row lengths {1, 3} with a long-range
	// coupling pins the variance and bandwidth arithmetic.
	m, err := csr.New(4, 4, []csr.Entry{
		{Row: 0, Col: 0, Val: 2},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: 2}, {Row: 1, Col: 2, Val: -1},
		{Row: 2, Col: 2, Val: 2},
		{Row: 3, Col: 0, Val: -1}, {Row: 3, Col: 2, Val: -1}, {Row: 3, Col: 3, Val: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p = profileMatrix(m)
	if p.Rows != 4 || p.NNZ != 8 || p.MeanRowNNZ != 2 {
		t.Fatalf("profile %+v, want rows 4, nnz 8, mean 2", p)
	}
	if p.Bandwidth != 3 {
		t.Fatalf("bandwidth = %d, want 3 (row 3 couples to col 0)", p.Bandwidth)
	}
	// Row lengths {1,3,1,3}: variance 1, mean 2 → cv 0.5.
	if math.Abs(p.RowLenCV-0.5) > 1e-12 {
		t.Fatalf("row-length cv = %v, want 0.5", p.RowLenCV)
	}
}

// TestAutotuneSelectsRegularFormat pins the heuristics' three regimes.
func TestAutotuneSelectsRegularFormat(t *testing.T) {
	cfg := Config{}.withDefaults()
	tune := func(req SolveRequest, src *csr.Matrix) (*AutotuneDecision, solveParams) {
		t.Helper()
		p, err := req.resolve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p.finalizeShards(src.Rows())
		d := autotune(&req, &p, profileMatrix(src), cfg)
		p.finalizeShards(src.Rows())
		return d, p
	}

	// A large grid Laplacian is regular (low cv) → sellcs.
	d, p := tune(SolveRequest{}, csr.Laplacian2D(16, 16))
	if d == nil || d.Format != "sellcs" || p.sigma != autotuneSigmaRegular {
		t.Fatalf("regular operator: decision %+v params sigma %d", d, p.sigma)
	}

	// A diagonal matrix is hyper-sparse (1 nnz/row) → coo.
	var entries []csr.Entry
	for i := 0; i < 32; i++ {
		entries = append(entries, csr.Entry{Row: i, Col: i, Val: 2})
	}
	diag, err := csr.New(32, 32, entries)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ = tune(SolveRequest{}, diag); d == nil || d.Format != "coo" {
		t.Fatalf("hyper-sparse operator: decision %+v", d)
	}

	// Pinning any layout knob disables the format choice.
	if d, _ = tune(SolveRequest{Format: "csr"}, csr.Laplacian2D(16, 16)); d != nil && d.Format != "" {
		t.Fatalf("pinned format still autotuned: %+v", d)
	}
	if d, _ = tune(SolveRequest{RowPtrScheme: "sed"}, csr.Laplacian2D(16, 16)); d != nil && d.Format != "" {
		t.Fatalf("row-pointer scheme did not pin the format: %+v", d)
	}
}

// TestAutotunedSolveParity is the op-conformance acceptance check: an
// autotuned solve must produce exactly the result of an explicit request
// for the same configuration — and share its cached operator, since the
// tuned knobs flow through the same cache-key path.
func TestAutotunedSolveParity(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()

	plain := csr.Laplacian2D(12, 12)
	spec := MatrixSpec{MatrixMarket: matrixMarketOf(t, plain)}

	id, err := s.Submit(SolveRequest{Matrix: spec, Scheme: "secded64"})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil || st.State != StateDone {
		t.Fatalf("autotuned solve: state %v err %v %v", st.State, err, st.Error)
	}
	auto := st.Result
	if auto.Options == nil || auto.Options.Autotune == nil {
		t.Fatal("unpinned request reported no autotune decision")
	}
	tuned := auto.Options.Autotune
	if tuned.Format == "" || tuned.Reason == "" {
		t.Fatalf("incomplete decision: %+v", tuned)
	}
	if tuned.Profile.Rows != plain.Rows() || tuned.Profile.NNZ != plain.NNZ() {
		t.Fatalf("profile does not describe the operator: %+v", tuned.Profile)
	}

	// Re-request with every tuned knob pinned explicitly.
	pinned := SolveRequest{
		Matrix: spec,
		Scheme: "secded64",
		Format: tuned.Format,
		Shards: tuned.Shards,
		Sigma:  tuned.Sigma,
	}
	id2, err := s.Submit(pinned)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := s.Wait(id2)
	if err != nil || st2.State != StateDone {
		t.Fatalf("pinned solve: state %v err %v %v", st2.State, err, st2.Error)
	}
	if d := st2.Result.Options.Autotune; d != nil && d.Format != "" {
		t.Fatalf("fully pinned request still autotuned the format: %+v", d)
	}
	if !st2.Result.CacheHit {
		t.Fatal("pinned request missed the autotuned operator (cache keys diverged)")
	}
	if st2.Result.Iterations != auto.Iterations {
		t.Fatalf("iteration counts diverged: %d vs %d", st2.Result.Iterations, auto.Iterations)
	}
	if len(st2.Result.X) != len(auto.X) {
		t.Fatal("solution lengths diverged")
	}
	for i := range auto.X {
		if st2.Result.X[i] != auto.X[i] {
			t.Fatalf("solution %d diverged: %v vs %v", i, st2.Result.X[i], auto.X[i])
		}
	}
}

// TestAutotuneMetrics checks the admission counters surface on /metrics.
func TestAutotuneMetrics(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	plain := csr.Laplacian2D(8, 8)
	id, err := s.Submit(SolveRequest{Matrix: MatrixSpec{MatrixMarket: matrixMarketOf(t, plain)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Wait(id); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(text, "abftd_jobs_autotuned_total 1") {
		t.Fatalf("autotuned job not counted:\n%s", text)
	}
	if !strings.Contains(text, `abftd_autotune_format_total{format="sellcs"} 1`) {
		t.Fatalf("autotuned format not counted:\n%s", text)
	}
}
