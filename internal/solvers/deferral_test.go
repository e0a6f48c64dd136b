package solvers

import (
	"math"
	"slices"
	"testing"

	"abft/internal/core"
)

// sourceRecorder is MatrixOperator remembering every source vector it is
// handed and counting the products that found an update pending on
// their source (core.UpdateRequest).
type sourceRecorder struct {
	MatrixOperator
	srcs     []*core.Vector
	deferred int
}

func (o *sourceRecorder) Apply(dst, x *core.Vector) error {
	if !slices.Contains(o.srcs, x) {
		o.srcs = append(o.srcs, x)
	}
	if x.PendingUpdate() != nil {
		o.deferred++
	}
	return o.MatrixOperator.Apply(dst, x)
}

// carrying returns how many recorded sources have an update pending.
func (o *sourceRecorder) carrying() int {
	n := 0
	for _, v := range o.srcs {
		if v.PendingUpdate() != nil {
			n++
		}
	}
	return n
}

// TestDeferredUpdateBoundary checks the rule that decides when CG's
// x += alpha p ; p = z + beta p rides the next product (DESIGN.md
// section 11): under rollback checkpoints every 3 iterations no snapshot
// and no return finds an update pending, and exactly the iterations a
// snapshot follows, and the last, run their update in place; under a
// state hook no hook call finds one and no update is deferred at all.
// Every solve is bit-identical to the plain one.
func TestDeferredUpdateBoundary(t *testing.T) {
	a, _, b := spdSystem(t, 8, 8)
	m := protect(t, a, core.SECDED64, core.SECDED64)
	solve := func(rec *sourceRecorder, opt Options) (Result, []uint64) {
		t.Helper()
		x := core.NewVector(a.Rows(), core.SECDED64)
		bv := core.VectorFromSlice(b, core.SECDED64)
		opt.Tol = 1e-10
		res, err := CG(rec, x, bv, opt)
		if err != nil || !res.Converged {
			t.Fatalf("%v, %+v", err, res)
		}
		if n := rec.carrying(); n > 0 {
			t.Errorf("%d vectors carry an update after the solve returned", n)
		}
		return res, slices.Clone(x.Raw())
	}
	newRecorder := func() *sourceRecorder {
		return &sourceRecorder{MatrixOperator: MatrixOperator{M: m, Workers: 1}}
	}
	plain := newRecorder()
	ref, xref := solve(plain, Options{})
	same := func(what string, res Result, x []uint64) {
		t.Helper()
		if !slices.Equal(x, xref) || res.Iterations != ref.Iterations ||
			!slices.Equal(bitsOf(res.Alphas), bitsOf(ref.Alphas)) || !slices.Equal(bitsOf(res.Betas), bitsOf(ref.Betas)) {
			t.Errorf("%s: the trajectory differs from the plain solve's", what)
		}
	}
	n := ref.Iterations
	if plain.deferred != n-1 {
		t.Errorf("plain solve: %d of %d products ran a deferred update, want %d", plain.deferred, n, n-1)
	}

	rec, snapshots := newRecorder(), 0
	res, x := solve(rec, Options{
		Recovery: Recovery{Policy: RecoveryRollback, Interval: 3},
		Progress: func(ev ProgressEvent) {
			if ev.Kind != ProgressCheckpoint {
				return
			}
			snapshots++
			if k := rec.carrying(); k > 0 {
				t.Errorf("snapshot after iteration %d: %d vectors carry an update", ev.Iteration, k)
			}
		},
	})
	same("rollback", res, x)
	if want := 1 + (n-1)/3; snapshots != want {
		t.Errorf("rollback: %d snapshots, want %d", snapshots, want)
	}
	if want := n - 1 - (n-1)/3; rec.deferred != want {
		t.Errorf("rollback: %d of %d products ran a deferred update, want %d", rec.deferred, n, want)
	}

	hooked, hooks := newRecorder(), 0
	res, x = solve(hooked, Options{StateHook: func(it int, live []*core.Vector) {
		hooks++
		for i, v := range live {
			if v.PendingUpdate() != nil {
				t.Errorf("hook at iteration %d: live vector %d carries an update", it, i)
			}
		}
	}})
	same("state hook", res, x)
	if hooks != n || hooked.deferred != 0 {
		t.Errorf("state hook: %d calls and %d deferred updates, want %d and 0", hooks, hooked.deferred, n)
	}

	// Stopped at MaxIter, short of convergence: the last iteration runs
	// its update in place, so x leaves as a solve that never defers
	// (one under a hook) leaves it.
	capped := func(opt Options) (*sourceRecorder, []uint64) {
		rec := newRecorder()
		x := core.NewVector(a.Rows(), core.SECDED64)
		opt.Tol, opt.MaxIter = 1e-10, n-2
		if res, err := CG(rec, x, core.VectorFromSlice(b, core.SECDED64), opt); err != nil || res.Converged {
			t.Fatalf("capped: %v, %+v", err, res)
		}
		if k := rec.carrying(); k > 0 {
			t.Errorf("capped: %d vectors carry an update after the solve returned", k)
		}
		return rec, slices.Clone(x.Raw())
	}
	rec, x = capped(Options{})
	_, xh := capped(Options{StateHook: func(int, []*core.Vector) {}})
	if !slices.Equal(x, xh) || rec.deferred != n-3 {
		t.Errorf("capped: x same as never deferring %t, %d deferred updates, want true and %d", slices.Equal(x, xh), rec.deferred, n-3)
	}
}

// bitsOf returns the IEEE-754 bits of fs.
func bitsOf(fs []float64) []uint64 {
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}
