package service

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// widthRequest is the system every width-parity case solves: CSR with
// SECDED64 on elements and vectors, CG, a right-hand side off the
// all-ones eigenvector.
func widthRequest() (SolveRequest, *csr.Matrix) {
	plain := csr.Laplacian2D(12, 10)
	return SolveRequest{
		Matrix:       MatrixSpec{Grid: &GridSpec{NX: 12, NY: 10}},
		Format:       "csr",
		Scheme:       "secded64",
		VectorScheme: "secded64",
		Solver:       "cg",
		B:            batchRHS(plain.Rows(), 1)[0],
		Tol:          1e-10,
	}, plain
}

func submitAndWait(t *testing.T, srv *Server, req SolveRequest) *SolveResult {
	t.Helper()
	id, err := srv.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return waitDone(t, srv, id)
}

func waitDone(t *testing.T, srv *Server, id string) *SolveResult {
	t.Helper()
	st, err := srv.Wait(id)
	if err != nil || st.State != StateDone {
		t.Fatalf("job %s: %v, state %s (error %q)", id, err, st.State, st.Error)
	}
	return st.Result
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestWidthOneIsAWidth: one runner serves every width, so the same
// system submitted as a lone job, as an rhs_batch of one and as one of a
// coalesced group returns the same bits, the same iteration count and
// the same per-job check count; a lone job's result carries none of the
// batch fields; and a struck lone job's rollbacks reach the lifetime
// totals once.
func TestWidthOneIsAWidth(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	req, _ := widthRequest()

	lone := submitAndWait(t, srv, req)
	if !lone.Converged || lone.Iterations < 8 || lone.Checks == 0 {
		t.Fatalf("lone job did not exercise the solve: %+v", lone)
	}
	doc, err := json.Marshal(lone)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"batch_width", "coalesced", "columns", "x_batch"} {
		if strings.Contains(string(doc), `"`+key+`"`) {
			t.Errorf("lone job's result carries %q: %s", key, doc[:min(len(doc), 200)])
		}
	}

	one := req
	one.B, one.RHSBatch = nil, [][]float64{req.B}
	batch := submitAndWait(t, srv, one)
	if len(batch.XBatch) != 1 || len(batch.Columns) != 1 || batch.BatchWidth != 0 || batch.Coalesced {
		t.Fatalf("rhs_batch of one: %d solutions, %d columns, width %d, coalesced %t",
			len(batch.XBatch), len(batch.Columns), batch.BatchWidth, batch.Coalesced)
	}
	sameBits(t, "rhs_batch of one", batch.XBatch[0], lone.X)
	if batch.Iterations != lone.Iterations || batch.Checks != lone.Checks {
		t.Fatalf("rhs_batch of one: %d iterations, %d checks; lone job %d and %d",
			batch.Iterations, batch.Checks, lone.Iterations, lone.Checks)
	}

	// Pin the worker on another operator so three copies of the job
	// coalesce behind it.
	release := pinWorker(t, srv)
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	release()
	for _, id := range ids {
		res := waitDone(t, srv, id)
		if !res.Coalesced || res.BatchWidth != 3 {
			t.Fatalf("job %s: coalesced=%t width=%d, want a 3-wide coalesced solve", id, res.Coalesced, res.BatchWidth)
		}
		sameBits(t, "coalesced job "+id, res.X, lone.X)
		if res.Iterations != lone.Iterations || res.Checks != lone.Checks {
			t.Fatalf("coalesced job %s: %d iterations, %d checks; lone job %d and %d",
				id, res.Iterations, res.Checks, lone.Iterations, lone.Checks)
		}
	}

	// A lone job struck in its live state rolls back inside the solver;
	// the lifetime totals count that solve's rollbacks exactly once.
	rb := req
	rb.Recovery = "rollback"
	struck := false
	srv.testStateHook = func(it int, live []*core.Vector) {
		if it == 6 && !struck {
			struck = true
			live[1].Raw()[3] ^= 1<<20 | 1<<30
		}
	}
	before := srv.rollbacks.Load()
	res := submitAndWait(t, srv, rb)
	srv.testStateHook = nil
	if res.Rollbacks == 0 || res.Retried {
		t.Fatalf("struck lone job: %d rollbacks, retried %t", res.Rollbacks, res.Retried)
	}
	if got := srv.rollbacks.Load() - before; got != uint64(res.Rollbacks) {
		t.Fatalf("lifetime rollbacks moved by %d, the job reports %d", got, res.Rollbacks)
	}
	sameBits(t, "rolled-back lone job", res.X, lone.X)
}

// TestServiceSolveKeepsFusedTail: the cached operator advertises Dot and
// BandRanges only when it is sharded. The solver engine reads their
// presence — a custom Dot without bands cannot be mirrored by the fused
// vector kernels — so a wrapper that always carries them silently sends
// every unsharded solve through the unfused CG tail, which shows as
// extra vector-side checks. Both shapes must account exactly the checks
// of the library solve over solvers.MatrixOperator, and match its bits.
func TestServiceSolveKeepsFusedTail(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	for _, shards := range []int{1, 2} {
		req, plain := widthRequest()
		req.Shards = shards
		got := submitAndWait(t, srv, req)

		cfg := op.Config{Scheme: core.SECDED64}
		var m core.ProtectedMatrix
		var err error
		if shards > 1 {
			m, err = shard.New(plain, shard.Options{
				Shards: shards, Format: op.CSR, Config: cfg, VectorScheme: core.SECDED64,
			})
		} else {
			m, err = op.New(op.CSR, plain, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		m.SetCounters(&core.Counters{})
		var jc core.Counters
		b := core.VectorFromSlice(req.B, core.SECDED64)
		x := core.NewVector(plain.Rows(), core.SECDED64)
		b.SetCounters(&jc)
		x.SetCounters(&jc)
		res, err := solvers.CG(solvers.MatrixOperator{M: m, Workers: 1}, x, b,
			solvers.Options{Tol: req.Tol, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, plain.Rows())
		if err := x.CopyTo(want); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "service solve", got.X, want)
		if got.Iterations != res.Iterations || got.Checks != jc.Checks() {
			t.Errorf("shards=%d: service %d iterations, %d vector checks; library CG %d and %d",
				shards, got.Iterations, got.Checks, res.Iterations, jc.Checks())
		}
	}
}
