package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"abft/internal/csr"
	"abft/internal/obs"
)

// warmRequest is a fully pinned CG solve of an inline MatrixMarket
// document, the shape of the resident-operator client.
func warmRequest(doc string, b []float64) SolveRequest {
	return SolveRequest{
		Matrix: MatrixSpec{MatrixMarket: doc},
		Format: "csr", Scheme: "secded64", RowPtrScheme: "secded64", Shards: 1,
		Solver: "cg", Tol: 1e-10, B: b,
	}
}

func rampRHS(n, salt int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = float64((i*7+salt)%13) - 6
	}
	return b
}

// postBody sends raw bytes to the waited solve endpoint through the
// handler (no socket) and decodes the reply.
func postBody(t *testing.T, srv *Server, body []byte) (int, JobStatus, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve?wait=1", bytes.NewReader(body)))
	var st JobStatus
	var eb errorBody
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	} else if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	return rec.Code, st, eb.Error
}

func postRequest(t *testing.T, srv *Server, req SolveRequest) JobStatus {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, st, msg := postBody(t, srv, body)
	if code != http.StatusOK || st.State != StateDone {
		t.Fatalf("solve: status %d %q, state %s %q", code, msg, st.State, st.Error)
	}
	return st
}

// TestContentAddressing: an operator is recognised by the bytes of its
// source. A byte-identical document is a hit that never reaches the
// parser; any one-byte change is a different operator — built again even
// when it parses to the same matrix — and every answer carries the bits
// of a direct solve of its own matrix.
func TestContentAddressing(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	plain := csr.Laplacian2D(9, 9)
	doc := matrixMarketOf(t, plain)
	b := rampRHS(plain.Rows(), 1)
	want := directSolve(t, plain, warmRequest(doc, b))

	cold := postRequest(t, srv, warmRequest(doc, b))
	if cold.Result.CacheHit || len(cold.Result.Operator) != 64 {
		t.Fatalf("cold request: cache_hit %v, operator %q", cold.Result.CacheHit, cold.Result.Operator)
	}
	sameBits(t, "cold", cold.Result.X, want)
	if got := srv.CacheStats(); got.SourceParses != 1 || got.Builds != 1 {
		t.Fatalf("after the cold request: %+v", got)
	}

	warm := postRequest(t, srv, warmRequest(doc, b))
	if !warm.Result.CacheHit || warm.Result.Operator != cold.Result.Operator {
		t.Fatalf("identical document: cache_hit %v, operator %q", warm.Result.CacheHit, warm.Result.Operator)
	}
	sameBits(t, "warm", warm.Result.X, want)
	if got := srv.CacheStats(); got.SourceParses != 1 || got.Builds != 1 {
		t.Fatalf("a resident operator was parsed or built again: %+v", got)
	}

	// One byte more, or one value spelled differently: the same matrix,
	// not the same bytes.
	respelt := strings.Replace(doc, " 4\n", " 4.0\n", 1)
	if respelt == doc {
		t.Fatal("document has no diagonal value to respell")
	}
	builds := uint64(1)
	for name, other := range map[string]string{"trailing space": doc + " ", "1.0 for 1": respelt} {
		st := postRequest(t, srv, warmRequest(other, b))
		builds++
		if st.Result.CacheHit || st.Result.Operator == cold.Result.Operator {
			t.Fatalf("%s: served the other document's operator", name)
		}
		sameBits(t, name, st.Result.X, want)
		if got := srv.CacheStats(); got.Builds != builds || got.SourceParses != builds {
			t.Fatalf("%s: %+v, want %d builds", name, got, builds)
		}
	}

	// The same document through Submit is hashed unescaped under its own
	// tag: it may build again, and answers with the same bits.
	direct := submitAndWait(t, srv, warmRequest(doc, b))
	sameBits(t, "submit", direct.X, want)
	if again := submitAndWait(t, srv, warmRequest(doc, b)); !again.CacheHit || again.Operator != direct.Operator {
		t.Fatalf("second Submit of the document: cache_hit %v", again.CacheHit)
	}

	// Same digest, different knobs: a distinct entry under the same handle.
	coo := warmRequest(doc, b)
	coo.Format, coo.RowPtrScheme = "coo", ""
	st := postRequest(t, srv, coo)
	if st.Result.CacheHit || st.Result.Operator != cold.Result.Operator {
		t.Fatalf("other knobs on a known digest: cache_hit %v, operator %q", st.Result.CacheHit, st.Result.Operator)
	}
	sameBits(t, "coo", st.Result.X, directSolve(t, plain, coo))
	// Five operators, five sources read: three HTTP documents and
	// Submit's at admission, the COO entry's at its build (admission knew
	// the digest).
	if got := srv.CacheStats(); got.Builds != 5 || got.SourceParses != 5 || got.Entries != 5 {
		t.Fatalf("at the end: %+v, want 5 builds, parses and entries", got)
	}
}

// TestKnownDigestSkipsTheParser: an unpinned request on a known digest
// is autotuned from the remembered profile — the same decision as on the
// cold request — and a request whose entry is resident never reads its
// document.
func TestKnownDigestSkipsTheParser(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	plain := csr.Laplacian2D(12, 12)
	req := SolveRequest{Matrix: MatrixSpec{MatrixMarket: matrixMarketOf(t, plain)}, Scheme: "secded64", Tol: 1e-8}

	cold := postRequest(t, srv, req)
	warm := postRequest(t, srv, req)
	viaSubmit := submitAndWait(t, srv, req)
	again := submitAndWait(t, srv, req)
	if cold.Result.Options.Autotune == nil {
		t.Fatal("unpinned request reported no autotune decision")
	}
	for name, res := range map[string]*SolveResult{"warm": warm.Result, "submit": viaSubmit, "submit again": again} {
		if !reflect.DeepEqual(res.Options.Autotune, cold.Result.Options.Autotune) {
			t.Fatalf("%s: decision %+v, cold request had %+v", name, res.Options.Autotune, cold.Result.Options.Autotune)
		}
	}
	if !warm.Result.CacheHit || !again.CacheHit {
		t.Fatal("known digest missed its resident operator")
	}
	// One parse per distinct digest (HTTP-quoted and Submit), none after.
	if got := srv.CacheStats().SourceParses; got != 2 {
		t.Fatalf("source parses = %d, want 2", got)
	}
}

// TestEvictedBetweenAdmissionAndPickup: a job admitted on a known digest
// holds no assembled matrix; when its entry is gone by the time a worker
// picks it up — LRU, a read-path fault, the scrub daemon — the build
// reads the retained document, and the answer is right and not a hit.
func TestEvictedBetweenAdmissionAndPickup(t *testing.T) {
	plain := csr.Laplacian2D(8, 8)
	doc := matrixMarketOf(t, plain)
	b := rampRHS(plain.Rows(), 2)
	evictions := map[string]func(t *testing.T, srv *Server, key string){
		"lru": func(t *testing.T, srv *Server, key string) {
			submitAndWait(t, srv, SolveRequest{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, Scheme: "sed"})
		},
		"fault": func(t *testing.T, srv *Server, key string) {
			srv.cache.evictFault(srv.cache.lookup(key))
		},
		"scrub": func(t *testing.T, srv *Server, key string) {
			e := srv.cache.lookup(key)
			e.mu.Lock()
			e.m.RawVals()[5] = flipBits(e.m.RawVals()[5], 1<<37)
			e.mu.Unlock()
			srv.ScrubNow()
		},
	}
	for name, evict := range evictions {
		t.Run(name, func(t *testing.T) {
			srv := New(Config{Workers: 1, CacheOperators: 1})
			defer srv.Close()
			req := warmRequest(doc, b)
			req.Scheme, req.RowPtrScheme = "sed", "" // detect-only: the scrub case must evict
			want := directSolve(t, plain, req)
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			postRequest(t, srv, req)

			decoded, quoted, err := decodeSolveRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			j, err := srv.admit(decoded, quoted)
			if err != nil {
				t.Fatal(err)
			}
			if j.plain != nil {
				t.Fatal("admission on a known digest assembled the source")
			}
			parses := srv.CacheStats().SourceParses
			evict(t, srv, j.key)
			if srv.cache.lookup(j.key) != nil {
				t.Fatal("entry survived its eviction")
			}
			if _, known := srv.cache.profile(j.digest); known {
				t.Fatal("digest remembered after its last entry left")
			}
			if err := srv.enqueue(j); err != nil {
				t.Fatal(err)
			}
			res := waitDone(t, srv, j.id)
			if res.CacheHit {
				t.Fatal("rebuilt operator reported as a cache hit")
			}
			sameBits(t, name, res.X, want)
			if got := srv.CacheStats().SourceParses - parses; got < 1 {
				t.Fatal("rebuild did not read the retained document")
			}
		})
	}
}

// TestSourceMemoLifetime: the digest memo holds exactly the digests some
// resident or building entry was built from — it shrinks with LRU and
// fault evictions and failed builds, and does not grow over many
// distinct sources.
func TestSourceMemoLifetime(t *testing.T) {
	c := newOperatorCache(2, obs.NopLogger())
	build := func(e *cacheEntry) error {
		e.m = testOperator(t)
		return nil
	}
	for i := 0; i < 1000; i++ {
		digest := fmt.Sprintf("d%d", i)
		// Two knob settings per source: the memo counts entries, not keys.
		for _, knobs := range []string{"|csr", "|coo"} {
			if _, _, err := c.get(digest+knobs, digest, MatrixProfile{Rows: i}, build); err != nil {
				t.Fatal(err)
			}
		}
		if len(c.sources) > 2 || len(c.sources) > len(c.entries) {
			t.Fatalf("after %d sources: %d remembered, %d entries", i+1, len(c.sources), len(c.entries))
		}
	}
	if prof, ok := c.profile("d999"); !ok || prof.Rows != 999 {
		t.Fatalf("resident digest not remembered: %+v %v", prof, ok)
	}
	if _, ok := c.profile("d998"); ok {
		t.Fatal("evicted digest still remembered")
	}
	c.evictFault(c.lookup("d999|csr"))
	if _, ok := c.profile("d999"); !ok {
		t.Fatal("digest forgotten while one of its entries is resident")
	}
	c.evictFault(c.lookup("d999|coo"))
	if len(c.sources) != 0 || len(c.entries) != 0 {
		t.Fatalf("memo not empty after the last eviction: %d sources, %d entries", len(c.sources), len(c.entries))
	}
	boom := errors.New("boom")
	if _, _, err := c.get("k", "bad", MatrixProfile{}, func(e *cacheEntry) error {
		return boom
	}); err != boom {
		t.Fatal(err)
	}
	if len(c.sources) != 0 {
		t.Fatal("failed build left its digest remembered")
	}
}

// TestAdmissionChecksOnKnownDigest: every 400 of the cold path is the
// same 400 when the digest is already known and nothing is parsed.
func TestAdmissionChecksOnKnownDigest(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	plain := csr.Laplacian2D(4, 4)
	doc, err := json.Marshal(matrixMarketOf(t, plain))
	if err != nil {
		t.Fatal(err)
	}
	tall, err := csr.New(3, 2, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 2, Col: 1, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	tallDoc, err := json.Marshal(matrixMarketOf(t, tall))
	if err != nil {
		t.Fatal(err)
	}
	matrix := `"matrix": {"matrix_market": ` + string(doc) + `}`
	cases := []struct{ name, body, want string }{
		{"rhs length", `{` + matrix + `, "b": [1,2,3]}`, "rhs length 3 does not match 16 rows"},
		{"rhs_batch column", `{` + matrix + `, "rhs_batch": [[1,2]]}`, "rhs_batch[0] length 2 does not match 16 rows"},
		{"b and rhs_batch", `{` + matrix + `, "b": [` + strings.Repeat("1,", 15) + `1], "rhs_batch": [[1]]}`, "mutually exclusive"},
		{"non-square", `{"matrix": {"matrix_market": ` + string(tallDoc) + `}}`, "matrix is 3x2; iterative solvers need a square operator"},
		{"malformed document", `{"matrix": {"matrix_market": "hello\n1 1 1"}}`, "mm: not a MatrixMarket file"},
		{"bad escape in document", `{"matrix": {"matrix_market": "%%MatrixMarket \q"}}`, "bad request body: invalid character 'q' in string escape code"},
		{"two sources", `{"matrix": {"grid": {"nx":4,"ny":4}, "matrix_market": ` + string(doc) + `}}`, "exactly one of"},
	}
	for _, known := range []bool{false, true} {
		for _, c := range cases {
			code, _, msg := postBody(t, srv, []byte(c.body))
			if code != http.StatusBadRequest || !strings.Contains(msg, c.want) {
				t.Errorf("%s (digest known: %v): status %d, error %q, want 400 mentioning %q", c.name, known, code, msg, c.want)
			}
		}
		// Make the square document's digest known for the second round.
		if code, st, msg := postBody(t, srv, []byte(`{`+matrix+`}`)); code != http.StatusOK || st.State != StateDone {
			t.Fatalf("priming solve: status %d %q", code, msg)
		}
	}
	if got := srv.CacheStats().Builds; got != 1 {
		t.Fatalf("builds = %d, want 1", got)
	}
}

// TestOperatorHandle: a result echoes the digest of its source, and a
// request may send that handle in place of the document for as long as
// an operator built from it under the same knobs is resident; otherwise
// 404 tells the client to resend.
func TestOperatorHandle(t *testing.T) {
	srv := New(Config{Workers: 1, CacheOperators: 1})
	defer srv.Close()
	plain := csr.Laplacian2D(8, 8)
	b := rampRHS(plain.Rows(), 3)
	full := warmRequest(matrixMarketOf(t, plain), b)
	want := directSolve(t, plain, full)

	handle := postRequest(t, srv, full).Result.Operator
	byHandle := full
	byHandle.Matrix = MatrixSpec{Operator: handle}
	parses := srv.CacheStats().SourceParses
	st := postRequest(t, srv, byHandle)
	if !st.Result.CacheHit || st.Result.Operator != handle {
		t.Fatalf("by handle: cache_hit %v, operator %q", st.Result.CacheHit, st.Result.Operator)
	}
	sameBits(t, "by handle", st.Result.X, want)
	sameBits(t, "by handle through Submit", submitAndWait(t, srv, byHandle).X, want)
	if srv.CacheStats().SourceParses != parses {
		t.Fatal("a handle request read a source")
	}

	expect404 := func(name string, req SolveRequest) {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		code, _, msg := postBody(t, srv, body)
		if code != http.StatusNotFound || !strings.Contains(msg, "resend") {
			t.Fatalf("%s: status %d, error %q, want 404 asking to resend", name, code, msg)
		}
		if _, err := srv.Submit(req); !errors.Is(err, ErrUnknownOperator) {
			t.Fatalf("%s: Submit error %v, want ErrUnknownOperator", name, err)
		}
	}
	never := byHandle
	never.Matrix = MatrixSpec{Operator: strings.Repeat("0", 64)}
	expect404("never sent", never)
	otherKnobs := byHandle
	otherKnobs.Format, otherKnobs.RowPtrScheme = "coo", ""
	expect404("no operator under these knobs", otherKnobs)
	both := byHandle
	both.Matrix.Grid = &GridSpec{NX: 8, NY: 8}
	if _, err := srv.Submit(both); err == nil || !strings.Contains(err.Error(), "exactly one of") {
		t.Fatalf("handle plus grid: %v", err)
	}

	// A job already admitted by handle when its entry is evicted has
	// nothing to rebuild from: it fails with the same reason.
	j, err := srv.admit(byHandle, nil)
	if err != nil {
		t.Fatal(err)
	}
	submitAndWait(t, srv, SolveRequest{Matrix: MatrixSpec{Grid: &GridSpec{NX: 4, NY: 4}}, Scheme: "sed"})
	if err := srv.enqueue(j); err != nil {
		t.Fatal(err)
	}
	if st, err := srv.Wait(j.id); err != nil || st.State != StateFailed || !strings.Contains(st.Error, "resend") {
		t.Fatalf("queued handle job after eviction: %v, state %s, error %q", err, st.State, st.Error)
	}
	expect404("evicted", byHandle)

	// Resending the document recovers, and the handle works again.
	if st := postRequest(t, srv, full); st.Result.CacheHit || st.Result.Operator != handle {
		t.Fatalf("resend: cache_hit %v, operator %q", st.Result.CacheHit, st.Result.Operator)
	}
	sameBits(t, "handle after resend", postRequest(t, srv, byHandle).Result.X, want)
}

// TestFinishedJobsReleaseTheirDocuments: the finished-job history keeps
// outcomes, not request documents. 200 waited requests carrying a
// document of some 60 KB each leave the heap where it was after the
// first.
func TestFinishedJobsReleaseTheirDocuments(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	plain := csr.Laplacian2D(32, 32)
	doc := matrixMarketOf(t, plain)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	send := func(i int) {
		req := warmRequest(doc, rampRHS(plain.Rows(), i))
		req.Tol = 1e-4
		postRequest(t, srv, req)
	}
	send(0)
	base := heap()
	for i := 1; i < 200; i++ {
		send(i)
	}
	if grown := int64(heap()) - int64(base); grown > 2<<20 {
		t.Fatalf("heap grew %d KB over 199 finished requests", grown>>10)
	}
}
