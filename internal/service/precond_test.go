package service

import (
	"strings"
	"testing"

	"abft/internal/precond"
)

func precondRequest(kind string) SolveRequest {
	// A structured RHS: the default all-ones vector is an eigen-like
	// direction of the grid operator and converges in one iteration,
	// which would make iteration comparisons meaningless.
	b := make([]float64, 64)
	for i := range b {
		b[i] = float64((i*13)%29) - 14
	}
	return SolveRequest{
		Matrix:  MatrixSpec{Grid: &GridSpec{NX: 8, NY: 8}},
		Scheme:  "secded64",
		Solver:  "pcg",
		Precond: kind,
		B:       b,
	}
}

// TestSolvePreconditioned: a pcg request with each preconditioner must
// converge to the same answer as plain cg, with the preconditioner
// cached alongside the operator.
func TestSolvePreconditioned(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	base := precondRequest("")
	base.Solver = "cg"
	id, err := s.Submit(base)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil || st.State != StateDone {
		t.Fatalf("cg baseline: %v %+v", err, st)
	}
	want := st.Result.X
	baseIters := st.Result.Iterations

	for _, kind := range []string{"jacobi", "bjacobi", "sgs"} {
		id, err := s.Submit(precondRequest(kind))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		st, err := s.Wait(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("%s: %v %+v", kind, err, st)
		}
		if !st.Result.Converged {
			t.Fatalf("%s did not converge", kind)
		}
		for i := range want {
			if d := st.Result.X[i] - want[i]; d > 1e-6 || d < -1e-6 {
				t.Fatalf("%s solution diverged at %d: %v vs %v", kind, i, st.Result.X[i], want[i])
			}
		}
		if kind != "jacobi" && st.Result.Iterations >= baseIters {
			t.Errorf("%s took %d iterations, cg %d", kind, st.Result.Iterations, baseIters)
		}
	}
	if cs := s.CacheStats(); cs.Preconditioners != 3 {
		t.Fatalf("cached preconditioners = %d, want 3", cs.Preconditioners)
	}
}

// TestPrecondSplitsCacheKey: the same operator with and without a
// preconditioner (or with different kinds) must occupy distinct cache
// entries, while repeated requests share one.
func TestPrecondSplitsCacheKey(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, kind := range []string{"", "jacobi", "sgs", "jacobi"} {
		req := precondRequest(kind)
		if kind == "" {
			req.Solver = "cg"
		}
		id, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := s.Wait(id); err != nil || st.State != StateDone {
			t.Fatalf("%q: %v %+v", kind, err, st)
		}
	}
	cs := s.CacheStats()
	if cs.Builds != 3 || cs.Hits != 1 {
		t.Fatalf("builds=%d hits=%d, want 3 distinct entries and 1 hit", cs.Builds, cs.Hits)
	}
}

// TestScrubCoversCachedPreconditioner: a flip planted in the cached
// preconditioner state is repaired by the patrol pass and accounted in
// the scrub statistics.
func TestScrubCoversCachedPreconditioner(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	id, err := s.Submit(precondRequest("jacobi"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("solve: %v %+v", err, st)
	}
	var entry *cacheEntry
	for _, e := range s.cache.resident() {
		entry = e
	}
	if entry == nil || entry.pre == nil {
		t.Fatal("no cached preconditioner")
	}
	entry.pre.RawState()[0].Raw()[0] ^= 1 << 40
	s.ScrubNow()
	ss := s.ScrubStats()
	if ss.Preconditioners != 1 || ss.Corrected != 1 || ss.Faults != 0 {
		t.Fatalf("scrub stats %+v, want one preconditioner scrub with one repair", ss)
	}
}

// TestScrubCoversResidentJacobi: every entry keeps a resident Jacobi,
// so a cg entry's is patrolled with its operator. Its repairs and faults
// count in Corrected and Faults; Preconditioners counts named
// preconditioners only, so a cg entry adds none.
func TestScrubCoversResidentJacobi(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := precondRequest("")
	req.Solver = "cg"
	e := primeOperator(t, s, req)
	if e.jac == nil || e.pre != nil {
		t.Fatalf("cg entry: jacobi %v, named %v; want the resident Jacobi alone", e.jac, e.pre)
	}
	strikeJacobi(e, 1<<40)
	s.ScrubNow()
	if ss := s.ScrubStats(); ss.Preconditioners != 0 || ss.Corrected != 1 || ss.Faults != 0 {
		t.Fatalf("scrub stats %+v, want one repair and no named preconditioner", ss)
	}
	if cs := s.CacheStats(); cs.Preconditioners != 0 || cs.Entries != 1 {
		t.Fatalf("cache stats %+v, want one entry and no named preconditioner", cs)
	}
	strikeJacobi(e, 1<<40|1<<41) // double flip: uncorrectable
	s.ScrubNow()
	if ss := s.ScrubStats(); ss.Preconditioners != 0 || ss.Corrected != 1 || ss.Faults != 1 {
		t.Fatalf("scrub stats %+v, want one fault", ss)
	}
	if cs := s.CacheStats(); cs.Entries != 0 || cs.EvictedFault != 1 {
		t.Fatalf("cache stats %+v, want the entry fault-evicted", cs)
	}
}

// TestPrecondFaultEvictsEntry: corruption in the cached preconditioner
// beyond the scheme's correction capability evicts the whole entry, and
// the next request rebuilds it clean.
func TestPrecondFaultEvictsEntry(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	id, err := s.Submit(precondRequest("jacobi"))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone {
		t.Fatalf("solve: %v %+v", err, st)
	}
	for _, e := range s.cache.resident() {
		e.pre.RawState()[0].Raw()[0] ^= 1<<40 | 1<<41 // double flip: uncorrectable
	}
	s.ScrubNow()
	if ss := s.ScrubStats(); ss.Faults != 1 {
		t.Fatalf("scrub stats %+v, want one fault", ss)
	}
	if cs := s.CacheStats(); cs.Entries != 0 || cs.EvictedFault != 1 {
		t.Fatalf("cache stats %+v, want the entry fault-evicted", cs)
	}
	// The rebuild serves the same content clean.
	id, err = s.Submit(precondRequest("jacobi"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Wait(id)
	if err != nil || st.State != StateDone || !st.Result.Converged {
		t.Fatalf("rebuild solve: %v %+v", err, st)
	}
	if st.Result.CacheHit {
		t.Fatal("evicted entry reported a cache hit")
	}
}

// TestPrecondRejectsNonPreconditionedSolvers: solver kinds that never
// apply an external preconditioner must not silently build and cache
// one.
func TestPrecondRejectsNonPreconditionedSolvers(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	for _, solver := range []string{"jacobi", "ppcg"} {
		req := precondRequest("sgs")
		req.Solver = solver
		if _, err := s.Submit(req); err == nil ||
			!strings.Contains(err.Error(), "does not apply a preconditioner") {
			t.Errorf("solver %s with a preconditioner not rejected: %v", solver, err)
		}
	}
	// Chebyshev does apply one (preconditioned residual smoothing).
	req := precondRequest("jacobi")
	req.Solver = "chebyshev"
	id, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Wait(id); err != nil || st.State != StateDone || !st.Result.Converged {
		t.Fatalf("preconditioned chebyshev: %v %+v", err, st)
	}
}

// TestPrecondRejectsUnknownName: the admission error must list the
// registered preconditioner choices, matching the ParseFormat
// convention.
func TestPrecondRejectsUnknownName(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	req := precondRequest("ilu")
	if _, err := s.Submit(req); err == nil ||
		!strings.Contains(err.Error(), "choices: "+precond.KindNames()) {
		t.Fatalf("unknown preconditioner not rejected with choices: %v", err)
	}
}
