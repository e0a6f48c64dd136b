package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"abft/internal/csr"
)

// TestSelectiveReliabilityEndToEnd posts a nonsymmetric system to the
// fgmres solver under both reliability modes and asserts the selective
// solve returns the identical solution (fault-free, the unverified
// no-decode path surfaces bit-identical payloads), echoes its resolved
// options, and is counted on /metrics.
func TestSelectiveReliabilityEndToEnd(t *testing.T) {
	srv := New(Config{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	plain := csr.ConvectionDiffusion2D(8, 8, 1.5, 0.5)
	doc := matrixMarketOf(t, plain)
	base := SolveRequest{
		Matrix:       MatrixSpec{MatrixMarket: doc},
		Scheme:       "secded64",
		RowPtrScheme: "secded64",
		VectorScheme: "secded64",
		Solver:       "fgmres",
		Tol:          1e-10,
	}

	full := base
	st, resp := postSolve(t, ts.URL, full, true)
	if resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("full solve: status %d, state %s (%s)", resp.StatusCode, st.State, st.Error)
	}
	if !st.Result.Converged {
		t.Fatalf("full solve did not converge: %+v", st.Result)
	}
	if st.Result.Options == nil || st.Result.Options.Reliability != "full" {
		t.Fatalf("full solve reliability echo wrong: options %+v", st.Result.Options)
	}

	sel := base
	sel.Reliability = "selective"
	sst, resp := postSolve(t, ts.URL, sel, true)
	if resp.StatusCode != http.StatusOK || sst.State != StateDone {
		t.Fatalf("selective solve: status %d, state %s (%s)", resp.StatusCode, sst.State, sst.Error)
	}
	if !sst.Result.Converged {
		t.Fatalf("selective solve did not converge: %+v", sst.Result)
	}
	o := sst.Result.Options
	if o == nil || o.Solver != "fgmres" || o.Reliability != "selective" ||
		o.Scheme != "secded64" || o.VectorScheme != "secded64" || o.Recovery != "off" {
		t.Fatalf("resolved options block wrong: %+v", o)
	}
	for i := range st.Result.X {
		if st.Result.X[i] != sst.Result.X[i] {
			t.Fatalf("row %d: full %v != selective %v (fault-free modes must match bit-exact)",
				i, st.Result.X[i], sst.Result.X[i])
		}
	}
	// The selective solve must verify strictly less: its ABFT check
	// count drops the inner-iteration share.
	if sst.Result.Checks >= st.Result.Checks {
		t.Fatalf("selective checks %d not below full %d", sst.Result.Checks, st.Result.Checks)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "abftd_jobs_selective_total 1") {
		t.Fatalf("metrics missing abftd_jobs_selective_total 1:\n%s", body)
	}
}

// TestSelectiveReliabilityAdmission pins the admission rules: selective
// admits only fgmres with no explicit preconditioner, and unknown
// reliability names fail with the registered choices.
func TestSelectiveReliabilityAdmission(t *testing.T) {
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
	grid := `"matrix": {"grid": {"nx":4,"ny":4}}`
	cases := []struct {
		name, body, wantInError string
	}{
		{"unknown reliability", `{` + grid + `, "reliability": "partial"}`, "choices: full, selective"},
		{"selective needs fgmres", `{` + grid + `, "reliability": "selective", "solver": "cg"}`, "requires the fgmres solver"},
		{"selective rejects precond", `{` + grid + `, "reliability": "selective", "solver": "fgmres", "precond": "jacobi"}`, "precond none"},
		{"negative restart", `{` + grid + `, "solver": "fgmres", "restart": -1}`, "restart"},
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
}
