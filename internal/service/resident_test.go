package service

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"abft/internal/core"
	"abft/internal/solvers"
)

// residentCases are the requests that scale by an entry's resident
// Jacobi: the jacobi solver, and fgmres with no preconditioner under
// either reliability.
var residentCases = []struct{ name, solver, reliability string }{
	{"jacobi", "jacobi", ""},
	{"fgmres_full", "fgmres", "full"},
	{"fgmres_selective", "fgmres", "selective"},
}

// residentRequest is one of residentCases with elements and vectors
// under one scheme, on precondRequest's operator and right-hand side.
func residentRequest(solver, reliability, scheme string) SolveRequest {
	req := precondRequest("")
	req.Solver, req.Reliability = solver, reliability
	req.Scheme, req.VectorScheme = scheme, scheme
	return req
}

// solveDone submits req, waits for it and fails the test unless it
// finished converged.
func solveDone(t *testing.T, s *Server, req SolveRequest) *SolveResult {
	t.Helper()
	return solveAll(t, s, req, 1)[0]
}

// solveAll submits n copies of req before waiting for any, so a server
// with n workers runs them at once, and fails the test unless each
// finished converged.
func solveAll(t *testing.T, s *Server, req SolveRequest, n int) []*SolveResult {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		var err error
		if ids[i], err = s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]*SolveResult, n)
	for i, id := range ids {
		st, err := s.Wait(id)
		if err != nil || st.State != StateDone || !st.Result.Converged {
			t.Fatalf("solve: %v %+v", err, st)
		}
		out[i] = st.Result
	}
	return out
}

// sameSolve fails the test unless got returned want's x bit for bit and
// its iteration count.
func sameSolve(t *testing.T, got, want *SolveResult) {
	t.Helper()
	if got.Iterations != want.Iterations {
		t.Fatalf("%d iterations, want %d", got.Iterations, want.Iterations)
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("x[%d] = %v, want %v", i, got.X[i], want.X[i])
		}
	}
}

// strikeJacobi flips mask in one word of e's resident inverse diagonal,
// under the entry's exclusive lock, as a soft error in resident memory.
func strikeJacobi(e *cacheEntry, mask uint64) {
	e.mu.Lock()
	e.jac.RawState()[0].Raw()[3] ^= mask
	e.mu.Unlock()
}

// TestResidentJacobiStrike is the resident-strike gate: one bit flipped
// in an entry's resident D^-1 between two identical requests is
// corrected on every read, so the struck request returns the clean
// one's x and iteration count bit for bit, and the repairs count on the
// entry, not the job. Three struck requests run at once, reading the one
// shared Jacobi. A two-flip SECDED64 strike is detected: the entry is
// evicted and the job retried against a clean rebuild.
func TestResidentJacobiStrike(t *testing.T) {
	for _, scheme := range []string{"secded64", "crc32c"} {
		for _, c := range residentCases {
			t.Run(scheme+"/"+c.name, func(t *testing.T) {
				s := New(Config{Workers: 3})
				defer s.Close()
				req := residentRequest(c.solver, c.reliability, scheme)
				req.Recovery = "rollback"
				req.Workers = 2
				clean := solveDone(t, s, req)
				e := s.cache.resident()[0]
				before := e.m.CounterSnapshot().Corrected

				strikeJacobi(e, 1<<40)
				for _, struck := range solveAll(t, s, req, 3) {
					sameSolve(t, struck, clean)
					if !struck.CacheHit || struck.Corrected != 0 {
						t.Fatalf("struck request: cache hit %v, job corrected %d; want a hit, repairs on the entry",
							struck.CacheHit, struck.Corrected)
					}
				}
				if after := e.m.CounterSnapshot().Corrected; after <= before {
					t.Fatalf("entry corrected %d -> %d: the strike was not repaired", before, after)
				}
				if scheme != "secded64" {
					return
				}
				strikeJacobi(e, 1<<40)       // undo: shared reads never commit
				strikeJacobi(e, 1<<40|1<<41) // one codeword, two flips
				retried := solveDone(t, s, req)
				sameSolve(t, retried, clean)
				if !retried.Retried || retried.CacheHit {
					t.Fatalf("two flips: retried %v, cache hit %v; want a retry on a rebuild", retried.Retried, retried.CacheHit)
				}
				if got := s.CacheStats().EvictedFault; got != 1 {
					t.Fatalf("fault evictions = %d, want 1", got)
				}
			})
		}
	}
}

// TestResidentJacobiMatchesLibrary: with elements and vectors under one
// scheme, abftd's jacobi and fgmres (both reliabilities) return the x
// and iteration count of the library's solvers on the same operator bit
// for bit. The resident Jacobi is built from the source's diagonal in
// the element scheme, the library's from the operator's verified
// diagonal in x's scheme; SECDED64 and CRC32C reserve the same mantissa
// bits, and the formats store values exactly.
func TestResidentJacobiMatchesLibrary(t *testing.T) {
	for _, scheme := range []string{"secded64", "crc32c"} {
		for _, c := range residentCases {
			t.Run(scheme+"/"+c.name, func(t *testing.T) {
				s := New(Config{Workers: 2})
				defer s.Close()
				req := residentRequest(c.solver, c.reliability, scheme)
				req.Workers = 2
				got := solveDone(t, s, req)

				p, err := req.resolve(s.cfg)
				if err != nil {
					t.Fatal(err)
				}
				e := s.cache.resident()[0]
				x := core.NewVector(len(req.B), p.vectors)
				b := core.VectorFromSlice(req.B, p.vectors)
				res, err := solvers.Solve(p.kind, solvers.MatrixOperator{M: e.m, Workers: p.opt.Workers}, x, b, p.opt)
				if err != nil {
					t.Fatal(err)
				}
				want := &SolveResult{X: make([]float64, x.Len()), Iterations: res.Iterations}
				if err := x.CopyTo(want.X); err != nil {
					t.Fatal(err)
				}
				sameSolve(t, got, want)
			})
		}
	}
}

// TestCacheEntryHoldsNoPlainState is the service half of the resident
// state census (the solvers and precond half is
// solvers.TestInnerSolverAndPreconditionersHoldNoPlainState): no field
// reachable from a cache entry through its own package's structs is a
// plain float64, uint32 or int slice or array. Everything an entry keeps
// for its whole life is codeword-protected; a plain copy there is
// corruption no scrub, check or counter sees.
func TestCacheEntryHoldsNoPlainState(t *testing.T) {
	if got := plainFields(reflect.TypeOf(cacheEntry{})); len(got) > 0 {
		t.Fatalf("plain numeric state on a resident entry: %v", got)
	}
}

// plainFields lists, as "Type.field", the fields that are slices or
// arrays of float64, uint32 or int elements (under any arrays, so
// [][2]int counts) reachable from struct type t through fields,
// pointers, slices and arrays of its own package's structs. Other
// packages' types — core.Vector's protected words among them — are not
// entered.
func plainFields(t reflect.Type) []string {
	var out []string
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(st reflect.Type) {
		if seen[st] {
			return
		}
		seen[st] = true
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			ft := f.Type
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array {
				if ft.Kind() != reflect.Pointer && plainNumber(ft.Elem()) {
					out = append(out, st.Name()+"."+f.Name)
					break
				}
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct && ft.PkgPath() == t.PkgPath() {
				walk(ft)
			}
		}
	}
	walk(t)
	return out
}

// plainNumber reports whether t, under any arrays, is float64, uint32 or
// int: the element types of a format's or a solver's numeric state.
func plainNumber(t reflect.Type) bool {
	for t.Kind() == reflect.Array {
		t = t.Elem()
	}
	return t.Kind() == reflect.Float64 || t.Kind() == reflect.Uint32 || t.Kind() == reflect.Int
}

// TestZeroDiagonalFailsOnlyItsJacobi: a source with a zero on its
// diagonal still builds, and solves that need no D^-1 run against it;
// the solves that need one fail with the reason the build recorded.
func TestZeroDiagonalFailsOnlyItsJacobi(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	// A symmetric indefinite permutation-like matrix: rows 0 and 1
	// couple only to each other, rows 2 and 3 are diagonal.
	req := SolveRequest{
		Matrix: MatrixSpec{Rows: 4, Cols: 4, Entries: []Triplet{
			{0, 1, 1}, {1, 0, 1}, {2, 2, 2}, {3, 3, 4},
		}},
		Scheme: "secded64",
		Solver: "cg",
		B:      []float64{1, 2, 3, 4},
	}
	solveDone(t, s, req)
	for _, solver := range []string{"jacobi", "fgmres"} {
		req.Solver = solver
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		st, err := s.Wait(id)
		if err != nil || st.State != StateFailed || !strings.Contains(st.Error, "zero diagonal") {
			t.Fatalf("%s: %v %+v, want a zero-diagonal failure", solver, err, st)
		}
	}
	if cs := s.CacheStats(); cs.Builds != 1 || cs.BuildErrors != 0 || cs.Entries != 1 {
		t.Fatalf("cache stats %+v, want one build serving every request", cs)
	}
}
