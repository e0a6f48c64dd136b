package solvers

import (
	"math"
	"testing"

	"abft/internal/core"
)

// corrupt flips two bits in one word of v's raw storage — under
// SECDED64 a guaranteed detected-uncorrectable error on the next read.
func corrupt(v *core.Vector, word int) {
	v.Raw()[word] ^= 1<<20 | 1<<30
}

// recoverySystem builds a protected SPD system with SECDED64 vectors.
func recoverySystem(t *testing.T) (Operator, *core.Vector, *core.Vector, []float64) {
	t.Helper()
	a, xTrue, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.None, core.None)
	x := core.NewVector(a.Rows(), core.SECDED64)
	bv := core.VectorFromSlice(b, core.SECDED64)
	return MatrixOperator{M: m}, x, bv, xTrue
}

// solveClean runs the fault-free reference under the same options.
func solveClean(t *testing.T, opt Options) (Result, []float64) {
	t.Helper()
	op, x, b, _ := recoverySystem(t)
	res, err := CG(op, x, b, opt)
	if err != nil || !res.Converged {
		t.Fatalf("clean solve: %v %+v", err, res)
	}
	out := make([]float64, x.Len())
	if err := x.CopyTo(out); err != nil {
		t.Fatal(err)
	}
	return res, out
}

func TestCGRollbackRecoversFromCorruptedState(t *testing.T) {
	opt := Options{Tol: 1e-10, Recovery: Recovery{Policy: RecoveryRollback, Interval: 4}}
	cleanRes, want := solveClean(t, opt)

	op, x, b, _ := recoverySystem(t)
	struck := 0
	opt.StateHook = func(it int, live []*core.Vector) {
		// Strike r (live[1]) at iteration 6 and p (live[2]) at 13.
		if it == 6 && struck == 0 {
			struck++
			corrupt(live[1], 3)
		}
		if it == 13 && struck == 1 {
			struck++
			corrupt(live[2], 7)
		}
	}
	res, err := CG(op, x, b, opt)
	if err != nil {
		t.Fatalf("rollback did not recover: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.Rollbacks < 2 {
		t.Fatalf("expected >= 2 rollbacks, got %d", res.Rollbacks)
	}
	if res.RecomputedIterations <= 0 || res.Checkpoints == 0 {
		t.Fatalf("recovery accounting missing: %+v", res)
	}
	// The live and checkpoint schemes are both SECDED64, so a restore
	// is bit-exact and the recovered trajectory matches the fault-free
	// run exactly.
	got := make([]float64, x.Len())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: recovered %v, fault-free %v", i, got[i], want[i])
		}
	}
	if res.Iterations != cleanRes.Iterations {
		t.Fatalf("recovered solve took %d recurrence iterations, fault-free %d",
			res.Iterations, cleanRes.Iterations)
	}
}

func TestCGRecoveryOffSurfacesFault(t *testing.T) {
	op, x, b, _ := recoverySystem(t)
	opt := Options{Tol: 1e-10}
	opt.StateHook = func(it int, live []*core.Vector) {
		if it == 5 {
			corrupt(live[1], 3)
		}
	}
	_, err := CG(op, x, b, opt)
	if err == nil || !IsFault(err) {
		t.Fatalf("expected a surfaced fault, got %v", err)
	}
	var ie *IterationError
	if !asIterationError(err, &ie) || ie.Iteration != 5 {
		t.Fatalf("fault not attributed to iteration 5: %v", err)
	}
}

func TestCGRestartRewindsToIterationZero(t *testing.T) {
	_, want := solveClean(t, Options{Tol: 1e-10, Recovery: Recovery{Policy: RecoveryRestart}})

	op, x, b, _ := recoverySystem(t)
	opt := Options{Tol: 1e-10, Recovery: Recovery{Policy: RecoveryRestart}}
	struck := false
	opt.StateHook = func(it int, live []*core.Vector) {
		if it == 9 && !struck {
			struck = true
			corrupt(live[0], 2)
		}
	}
	res, err := CG(op, x, b, opt)
	if err != nil || !res.Converged {
		t.Fatalf("restart did not recover: %v %+v", err, res)
	}
	if res.Rollbacks != 1 {
		t.Fatalf("rollbacks %d want 1", res.Rollbacks)
	}
	// Restart's only checkpoint is iteration zero, so the whole prefix
	// is recomputed.
	if res.RecomputedIterations != 9 {
		t.Fatalf("recomputed %d want 9", res.RecomputedIterations)
	}
	if res.Checkpoints != 1 {
		t.Fatalf("checkpoints %d want 1 (restart keeps only checkpoint zero)", res.Checkpoints)
	}
	got := make([]float64, x.Len())
	if err := x.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d diverged after restart", i)
		}
	}
}

func TestRollbackBudgetExhaustion(t *testing.T) {
	op, x, b, _ := recoverySystem(t)
	opt := Options{Tol: 1e-10, Recovery: Recovery{
		Policy: RecoveryRollback, Interval: 4,
	}}
	// A strike on every iteration can never be outrun: the budget
	// drains and the fault surfaces.
	opt.StateHook = func(it int, live []*core.Vector) {
		corrupt(live[1], 3)
	}
	res, err := CG(op, x, b, opt)
	if err == nil || !IsFault(err) {
		t.Fatalf("expected the fault to surface after budget exhaustion, got %v", err)
	}
	if res.Rollbacks != maxRollbacks {
		t.Fatalf("rollbacks %d want the full budget %d", res.Rollbacks, maxRollbacks)
	}
}

func TestRecoveryAllSolversConverge(t *testing.T) {
	for _, kind := range Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			op, x, b, xTrue := recoverySystem(t)
			opt := Options{
				Tol: 1e-9, MaxIter: 60000,
				Recovery: Recovery{Policy: RecoveryRollback, Interval: 8},
			}
			if kind == KindFGMRES {
				// One FGMRES engine iteration is a whole restart cycle;
				// a single-step restart keeps the cycle count high
				// enough to reach the strike.
				opt.Restart = 1
			}
			struck := false
			opt.StateHook = func(it int, live []*core.Vector) {
				if it == 10 && !struck {
					struck = true
					corrupt(live[0], 5)
				}
			}
			res, err := Solve(kind, op, x, b, opt)
			if err != nil || !res.Converged {
				t.Fatalf("%v: %v %+v", kind, err, res)
			}
			if !struck {
				t.Fatalf("%v converged before the strike; not exercised", kind)
			}
			if res.Rollbacks == 0 {
				t.Fatalf("%v: no rollback recorded", kind)
			}
			got := make([]float64, x.Len())
			if err := x.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			if d := maxAbsDiff(got, xTrue); d > 1e-6 {
				t.Fatalf("%v: recovered solution off by %g", kind, d)
			}
		})
	}
}

func TestRecoveryHistoryTruncatesOnRollback(t *testing.T) {
	op, x, b, _ := recoverySystem(t)
	opt := Options{
		Tol: 1e-10, RecordHistory: true,
		Recovery: Recovery{Policy: RecoveryRollback, Interval: 4},
	}
	struck := false
	opt.StateHook = func(it int, live []*core.Vector) {
		if it == 7 && !struck {
			struck = true
			corrupt(live[1], 1)
		}
	}
	res, err := CG(op, x, b, opt)
	if err != nil || !res.Converged {
		t.Fatalf("%v %+v", err, res)
	}
	// History holds one entry per recurrence iteration: rollbacks must
	// not leave duplicated entries behind.
	if len(res.History) != res.Iterations {
		t.Fatalf("history %d entries for %d iterations", len(res.History), res.Iterations)
	}
	if len(res.Alphas) != res.Iterations || len(res.Betas) != res.Iterations {
		t.Fatalf("coefficient accumulators not truncated: %d/%d for %d iterations",
			len(res.Alphas), len(res.Betas), res.Iterations)
	}
}

func TestAdaptiveIntervalTightensAndRelaxes(t *testing.T) {
	e := &engine{
		opt:      Options{MaxIter: 1},
		rec:      Recovery{Policy: RecoveryRollback, Scheme: core.SECDED64},
		adaptive: true,
		interval: defaultCheckpointInterval,
	}
	v := core.NewVector(8, core.SECDED64)
	e.protect(v)
	if err := e.snapshot(0); err != nil {
		t.Fatal(err)
	}
	// A rollback halves the cadence...
	corrupt(v, 0)
	if _, ok := e.rollback(5, &core.FaultError{}); !ok {
		t.Fatal("rollback refused")
	}
	if e.interval != defaultCheckpointInterval/2 {
		t.Fatalf("interval %d after rollback, want %d", e.interval, defaultCheckpointInterval/2)
	}
	// ...and never below the floor, which three halvings from 32 reach
	// well inside the rollback budget.
	for i := 0; i < maxRollbacks-1; i++ {
		if _, ok := e.rollback(5, &core.FaultError{}); !ok {
			t.Fatal("rollback refused")
		}
	}
	if e.interval != minCheckpointInterval {
		t.Fatalf("interval %d, want floor %d", e.interval, minCheckpointInterval)
	}
	// Consecutive clean checkpoints relax it again.
	for i := 0; i < adaptGrowAfter; i++ {
		if err := e.snapshot(4 * (i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	if e.interval != 2*minCheckpointInterval {
		t.Fatalf("interval %d after clean checkpoints, want %d", e.interval, 2*minCheckpointInterval)
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
	}{
		{"negative MaxIter", Options{MaxIter: -1}},
		{"negative Tol", Options{Tol: -1e-9}},
		{"NaN Tol", Options{Tol: math.NaN()}},
		{"negative EigenIters", Options{EigenIters: -2}},
		{"negative InnerSteps", Options{InnerSteps: -2}},
		{"negative recovery interval", Options{Recovery: Recovery{Interval: -1}}},
		{"unknown policy", Options{Recovery: Recovery{Policy: RecoveryPolicy(99)}}},
	}
	op, x, b, _ := recoverySystem(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.opt.Validate(); err == nil {
				t.Fatalf("%+v accepted", tc.opt)
			}
			// Every solver entry point rejects it too.
			if _, err := CG(op, x, b, tc.opt); err == nil {
				t.Fatal("CG accepted invalid options")
			}
			if _, err := PPCG(op, x, b, tc.opt); err == nil {
				t.Fatal("PPCG accepted invalid options")
			}
			if _, err := PCG(op, x, b, tc.opt); err == nil {
				t.Fatal("PCG accepted invalid options")
			}
		})
	}
	// Zero still means "the default" everywhere.
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
}

func TestParseRecoveryRoundTrip(t *testing.T) {
	for _, p := range RecoveryPolicies {
		got, err := ParseRecovery(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: %v %v", p, got, err)
		}
	}
	if got, err := ParseRecovery(""); err != nil || got != RecoveryOff {
		t.Fatalf("empty name: %v %v", got, err)
	}
	if _, err := ParseRecovery("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestSnapshotFaultKeepsLastGoodCheckpoint pins the double-buffering
// invariant: a fault detected while taking a snapshot must leave the
// previous checkpoint fully intact — never a mix of two iterations —
// so the rollback that follows restores a consistent state.
func TestSnapshotFaultKeepsLastGoodCheckpoint(t *testing.T) {
	e := &engine{
		opt: Options{MaxIter: 1},
		rec: Recovery{Policy: RecoveryRollback, Scheme: core.SECDED64},
	}
	a := core.VectorFromSlice([]float64{1, 2, 3, 4}, core.SECDED64)
	b := core.VectorFromSlice([]float64{5, 6, 7, 8}, core.SECDED64)
	e.protect(a, b)
	if err := e.snapshot(0); err != nil {
		t.Fatal(err)
	}
	// Advance to new (valid) values, then corrupt b beyond repair: the
	// snapshot copies a cleanly before faulting on b.
	a.Fill(100)
	b.Fill(200)
	corrupt(b, 1)
	if err := e.snapshot(4); err == nil {
		t.Fatal("snapshot of corrupted state succeeded")
	}
	if _, ok := e.rollback(4, &core.FaultError{}); !ok {
		t.Fatal("rollback refused")
	}
	// Both vectors must hold the iteration-0 values: a partially
	// overwritten checkpoint would leave a at 100 with b at 5..8.
	for i, want := range []float64{1, 2, 3, 4} {
		if got, err := a.At(i); err != nil || got != want {
			t.Fatalf("a[%d] = %v (%v), want %v", i, got, err, want)
		}
	}
	for i, want := range []float64{5, 6, 7, 8} {
		if got, err := b.At(i); err != nil || got != want {
			t.Fatalf("b[%d] = %v (%v), want %v", i, got, err, want)
		}
	}
}
