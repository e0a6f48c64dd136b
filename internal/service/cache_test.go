package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/obs"
)

func testOperator(t *testing.T) core.ProtectedMatrix {
	t.Helper()
	m, err := core.NewMatrix(csr.Laplacian2D(4, 4), core.MatrixOptions{ElemScheme: core.SED})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCounters(&core.Counters{})
	return m
}

// TestCacheSingleFlight: N concurrent requests for one absent key pay
// exactly one encode; everyone else blocks on the in-flight build and
// counts as a hit.
func TestCacheSingleFlight(t *testing.T) {
	c := newOperatorCache(8, obs.NopLogger())
	var builds atomic.Int32
	build := func(e *cacheEntry) error {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the window for stragglers
		e.m = testOperator(t)
		return nil
	}

	const n = 16
	var wg sync.WaitGroup
	var hits atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, hit, err := c.get("k", "d", MatrixProfile{}, build)
			if err != nil || e == nil {
				t.Errorf("get: %v", err)
				return
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("builds = %d, want 1", builds.Load())
	}
	if hits.Load() != n-1 {
		t.Fatalf("hits = %d, want %d", hits.Load(), n-1)
	}
	s := c.Stats()
	if s.Builds != 1 || s.Hits != n-1 || s.Entries != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newOperatorCache(2, obs.NopLogger())
	build := func(e *cacheEntry) error {
		e.m = testOperator(t)
		return nil
	}
	for i := 0; i < 3; i++ {
		if _, _, err := c.get(fmt.Sprintf("k%d", i), "d", MatrixProfile{}, build); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Entries != 2 || s.EvictedLRU != 1 {
		t.Fatalf("stats %+v, want 2 entries and 1 lru eviction", s)
	}
	if c.lookup("k0") != nil {
		t.Fatal("oldest entry survived eviction")
	}
	// Touching k1 promotes it; inserting k3 must now evict k2.
	if _, hit, err := c.get("k1", "d", MatrixProfile{}, build); err != nil || !hit {
		t.Fatalf("re-get k1: hit=%v err=%v", hit, err)
	}
	if _, _, err := c.get("k3", "d", MatrixProfile{}, build); err != nil {
		t.Fatal(err)
	}
	if c.lookup("k2") != nil {
		t.Fatal("LRU order ignored recency")
	}
	if c.lookup("k1") == nil {
		t.Fatal("recently used entry evicted")
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := newOperatorCache(2, obs.NopLogger())
	boom := fmt.Errorf("boom")
	if _, _, err := c.get("k", "d", MatrixProfile{}, func(*cacheEntry) error { return boom }); err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
	s := c.Stats()
	if s.Entries != 0 || s.Builds != 0 || s.BuildErrors != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The failed key is retried, not poisoned.
	if _, hit, err := c.get("k", "d", MatrixProfile{}, func(e *cacheEntry) error {
		e.m = testOperator(t)
		return nil
	}); err != nil || hit {
		t.Fatalf("retry: hit=%v err=%v", hit, err)
	}
}

// digestOf is the source digest admission would compute for spec sent
// through Submit.
func digestOf(t *testing.T, spec MatrixSpec) string {
	t.Helper()
	d, err := sourceDigest(&spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// gridKey is the operator cache key of request r against an nx-by-ny
// grid source.
func gridKey(t *testing.T, r SolveRequest, nx, ny int) string {
	t.Helper()
	p, err := r.resolve(Config{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	p.finalizeShards(nx * ny)
	return operatorKey(digestOf(t, MatrixSpec{Grid: &GridSpec{NX: nx, NY: ny}}), p)
}

// TestOperatorKeyDistinguishesConfigs: the same source under different
// protection configurations must not share an operator, while the same
// bytes sent again must.
func TestOperatorKeyDistinguishesConfigs(t *testing.T) {
	base := SolveRequest{Scheme: "secded64"}
	k0 := gridKey(t, base, 6, 6)
	if k := gridKey(t, base, 6, 6); k != k0 {
		t.Fatal("identical source and config produced different keys")
	}
	for _, alt := range []SolveRequest{
		{Scheme: "sed"},
		{Scheme: "secded64", RowPtrScheme: "sed"},
		{Scheme: "secded64", Format: "coo"},
		{Scheme: "secded64", Format: "sellcs", Sigma: 8},
	} {
		if k := gridKey(t, alt, 6, 6); k == k0 {
			t.Fatalf("config %+v collided with base key", alt)
		}
	}
	if k := gridKey(t, base, 6, 7); k == k0 {
		t.Fatal("different content collided with base key")
	}
}

// TestOperatorKeyIgnoresIrrelevantKnobs: knobs a format ignores
// (rowptr scheme outside CSR, sigma outside SELL) must not split the
// cache between semantically identical operators.
func TestOperatorKeyIgnoresIrrelevantKnobs(t *testing.T) {
	key := func(r SolveRequest) string { return gridKey(t, r, 6, 6) }
	if key(SolveRequest{Format: "coo", Scheme: "secded64"}) !=
		key(SolveRequest{Format: "coo", Scheme: "secded64", RowPtrScheme: "sed"}) {
		t.Fatal("rowptr scheme split the key for COO, which ignores it")
	}
	if key(SolveRequest{Format: "csr", Scheme: "secded64"}) !=
		key(SolveRequest{Format: "csr", Scheme: "secded64", Sigma: 8}) {
		t.Fatal("sigma split the key for CSR, which ignores it")
	}
	if key(SolveRequest{Format: "sellcs", Scheme: "secded64"}) ==
		key(SolveRequest{Format: "sellcs", Scheme: "secded64", Sigma: 8}) {
		t.Fatal("sigma must stay in the key for SELL-C-sigma")
	}
}
