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

// TestShardedSolveEndToEnd is the acceptance path: POST /v1/solve with
// "shards": N over a general MatrixMarket operator must converge to the
// unsharded answer in every storage format.
func TestShardedSolveEndToEnd(t *testing.T) {
	plain := csr.IrregularSPD(36)
	doc := matrixMarketOf(t, plain)
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()

	for _, format := range []string{"csr", "coo", "sellcs"} {
		req := SolveRequest{
			Matrix:       MatrixSpec{MatrixMarket: doc},
			Format:       format,
			Scheme:       "secded64",
			VectorScheme: "secded64",
			Tol:          1e-10,
		}
		ref, resp := postSolve(t, ts.URL, req, true)
		if resp.StatusCode != http.StatusOK || ref.State != StateDone {
			t.Fatalf("%s unsharded: status %d state %s error %q", format, resp.StatusCode, ref.State, ref.Error)
		}

		req.Shards = 3
		got, resp := postSolve(t, ts.URL, req, true)
		if resp.StatusCode != http.StatusOK || got.State != StateDone {
			t.Fatalf("%s sharded: status %d state %s error %q", format, resp.StatusCode, got.State, got.Error)
		}
		if !got.Result.Converged || !ref.Result.Converged {
			t.Fatalf("%s: convergence sharded=%v unsharded=%v", format, got.Result.Converged, ref.Result.Converged)
		}
		if got.Result.ResidualNorm > 1e-10 {
			t.Fatalf("%s: sharded residual %g above tolerance", format, got.Result.ResidualNorm)
		}
		for i := range ref.Result.X {
			if d := math.Abs(got.Result.X[i] - ref.Result.X[i]); d > 1e-7 {
				t.Fatalf("%s: solution %d differs by %g", format, i, d)
			}
		}
		if got.Result.CacheHit {
			t.Fatalf("%s: sharded solve hit the unsharded operator's cache entry", format)
		}
	}

	// Six distinct operators are resident: each format, sharded and not.
	if cs := s.CacheStats(); cs.Entries != 6 {
		t.Fatalf("cache entries = %d, want 6", cs.Entries)
	} else if cs.Shards != 3*3+3 {
		t.Fatalf("cache shards = %d, want 12", cs.Shards)
	}

	// A scrub pass patrols every shard of every resident operator.
	s.ScrubNow()
	if ss := s.ScrubStats(); ss.Scrubbed != 6 || ss.Shards != 12 {
		t.Fatalf("scrub stats %+v, want 6 operators / 12 shards", ss)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"abftd_cache_shards 12",
		"abftd_jobs_sharded_total 3",
		"abftd_scrub_shards_scrubbed_total 12",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestShardParamResolution covers the canonicalisation rules: one shard
// is the unsharded operator, counts clamp to MaxShards and to the
// matrix size, and the shard format defaults to the request format.
func TestShardParamResolution(t *testing.T) {
	cfg := Config{}.withDefaults()
	key := func(r SolveRequest, nx int) string { return gridKey(t, r, nx, nx) }

	base := SolveRequest{Scheme: "secded64"}
	if key(base, 6) != key(SolveRequest{Scheme: "secded64", Shards: 1}, 6) {
		t.Fatal("shards=1 did not canonicalise to the unsharded key")
	}
	if key(base, 6) == key(SolveRequest{Scheme: "secded64", Shards: 2}, 6) {
		t.Fatal("sharded and unsharded requests shared a key")
	}
	if key(SolveRequest{Scheme: "secded64", Shards: 2}, 6) ==
		key(SolveRequest{Scheme: "secded64", Shards: 2, VectorScheme: "sed"}, 6) {
		t.Fatal("halo-buffer protection did not shape the sharded key")
	}
	if key(SolveRequest{Scheme: "secded64", Shards: 2}, 6) ==
		key(SolveRequest{Scheme: "secded64", Shards: 2, ShardFormat: "coo"}, 6) {
		t.Fatal("shard format did not shape the sharded key")
	}
	if key(SolveRequest{Scheme: "secded64", Format: "coo", Shards: 2}, 6) !=
		key(SolveRequest{Scheme: "secded64", Format: "coo", Shards: 2, ShardFormat: "coo"}, 6) {
		t.Fatal("defaulted shard format diverged from the explicit one")
	}

	if _, err := (&SolveRequest{Shards: -1}).resolve(cfg); err == nil {
		t.Fatal("negative shards accepted")
	}
	p, err := (&SolveRequest{Shards: 10_000}).resolve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.shards != cfg.MaxShards {
		t.Fatalf("shards = %d, want clamp to MaxShards %d", p.shards, cfg.MaxShards)
	}

	// Admission clamps further: a tiny operator cannot be cut into 16.
	s := New(Config{Workers: 1})
	defer s.Close()
	j, err := s.admit(SolveRequest{
		Matrix: MatrixSpec{Grid: &GridSpec{NX: 2, NY: 2}},
		Shards: 10_000,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if j.params.shards != 0 {
		t.Fatalf("4-row operator resolved to %d shards, want unsharded", j.params.shards)
	}

	// When the count clamps all the way down, ShardFormat must not leak
	// into the effective format: the job is the plain unsharded request.
	plainJob, err := s.admit(SolveRequest{
		Matrix: MatrixSpec{Grid: &GridSpec{NX: 2, NY: 2}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	clamped, err := s.admit(SolveRequest{
		Matrix:      MatrixSpec{Grid: &GridSpec{NX: 2, NY: 2}},
		Shards:      10_000,
		ShardFormat: "sellcs",
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clamped.key != plainJob.key {
		t.Fatalf("clamped-to-unsharded request diverged from the plain one:\n%s\n%s",
			clamped.key, plainJob.key)
	}
}
