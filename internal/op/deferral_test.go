package op_test

import (
	"fmt"
	"testing"

	"abft/internal/core"
	"abft/internal/faults"
	"abft/internal/op"
	"abft/internal/solvers"
)

// CG's x += alpha p ; p = z + beta p is deferred onto p and run by the
// next product's read of p (core.UpdateRequest, DESIGN.md section 38).
// These tests strike p while its update is pending, and run the
// recurrence through an operator whose product never reaches that read.

// deferralOperators are the strike and fallback tests' operators: CSR
// and two SELL-C-sigma shards, SECDED64 throughout.
var deferralOperators = []struct {
	format op.Format
	shards int
}{{op.CSR, 1}, {op.SELLCS, 2}}

// lastSource forwards every product and remembers the last source.
type lastSource struct {
	solvers.MatrixOperator
	last *core.Vector
}

func (o *lastSource) Apply(dst, x *core.Vector) error {
	o.last = x
	return o.MatrixOperator.Apply(dst, x)
}

func (o *lastSource) Unwrap() solvers.Operator { return o.MatrixOperator }

// TestDeferredUpdateStrike flips bits of p's storage just before the
// product that runs p's pending update, under rollback checkpoints. The
// update's verified read of p repairs a single flip, and the trajectory
// is the unstruck one bit for bit. It detects a double flip in one
// codeword, and the engine rolls back and converges to the unstruck
// solution.
func TestDeferredUpdateStrike(t *testing.T) {
	for _, o := range deferralOperators {
		t.Run(fmt.Sprintf("%v/shards=%d", o.format, o.shards), func(t *testing.T) {
			solve := func(bits ...uint) (uint64, []float64, solvers.Result, core.CounterSnapshot) {
				t.Helper()
				src := &lastSource{MatrixOperator: recoveryOperator(t, o.format, o.shards).(solvers.MatrixOperator)}
				pending := false
				// Product 0 is A x0 and product 1 multiplies the set-up's
				// p; iteration 1 defers its update onto p for product 2.
				inj := &faults.InjectingOperator{Op: src, InjectAt: 2, Inject: func() {
					p := src.last
					pending = p.PendingUpdate() != nil
					for _, b := range bits {
						p.Raw()[5] ^= 1 << b
					}
				}}
				var c core.Counters
				x := core.NewVector(inj.Rows(), core.SECDED64)
				b := core.VectorFromSlice(shardRefVector(inj.Rows()), core.SECDED64)
				x.SetCounters(&c)
				b.SetCounters(&c)
				res, err := solvers.CG(inj, x, b, solvers.Options{
					Tol: 1e-10, Workers: 1,
					Recovery: solvers.Recovery{Policy: solvers.RecoveryRollback, Interval: 8},
				})
				if err != nil || !res.Converged {
					t.Fatalf("flips %v: %v, %+v", bits, err, res)
				}
				if !pending {
					t.Fatalf("flips %v: the strike found no update pending on p", bits)
				}
				out := make([]float64, x.Len())
				if err := x.CopyTo(out); err != nil {
					t.Fatal(err)
				}
				return trajectoryHash([]*core.Vector{x}, res), out, res, c.Snapshot()
			}
			ref, xref, _, _ := solve()
			h, _, res, c := solve(40)
			if h != ref || c.Corrected != 1 || res.Rollbacks != 0 {
				t.Errorf("single flip: trajectory unchanged %t, %d corrected, %d rollbacks; want true, 1, 0",
					h == ref, c.Corrected, res.Rollbacks)
			}
			_, x, res, c := solve(40, 41)
			if c.Detected == 0 || res.Rollbacks != 1 {
				t.Errorf("double flip: %d detected, %d rollbacks; want at least 1 and 1", c.Detected, res.Rollbacks)
			}
			for i := range x {
				if x[i] != xref[i] {
					t.Fatalf("double flip: x[%d] = %v after the rollback, want %v", i, x[i], xref[i])
				}
			}
		})
	}
}

// privateCopy applies its operator to a private copy of each source, so
// its product never reaches core's read of the caller's vector: an
// update pending there stays attached.
type privateCopy struct {
	solvers.MatrixOperator
	calls int
}

func copyOf(x *core.Vector) (*core.Vector, error) {
	buf := make([]float64, x.Len())
	if err := x.CopyTo(buf); err != nil {
		return nil, err
	}
	return core.VectorFromSlice(buf, x.Scheme()), nil
}

func (o *privateCopy) Apply(dst, x *core.Vector) error {
	o.calls++
	c, err := copyOf(x)
	if err != nil {
		return err
	}
	return o.MatrixOperator.Apply(dst, c)
}

func (o *privateCopy) ApplyBatch(dst, x *core.MultiVector) error {
	o.calls++
	cols := make([]*core.Vector, x.K())
	for j := range cols {
		var err error
		if cols[j], err = copyOf(x.Col(j)); err != nil {
			return err
		}
	}
	c, err := core.WrapMultiVector(cols...)
	if err != nil {
		return err
	}
	return o.MatrixOperator.ApplyBatch(dst, c)
}

func (o *privateCopy) Unwrap() solvers.Operator { return o.MatrixOperator }

// TestDeferredUpdateFallback runs CG, PCG and a width-2 BlockCG through
// privateCopy: every product after a deferred update multiplies the old
// p and returns with the update still attached, and the engine runs the
// update and the product again. The trajectories match MatrixOperator's
// bit for bit. CG's 2N calls are one set-up product, N products and N-1
// repeats. The repo's own operators never repeat one: faults'
// TestInjectingOperatorKeepsContract counts Iterations + 1 calls.
func TestDeferredUpdateFallback(t *testing.T) {
	opt := solvers.Options{Tol: 1e-10, Workers: 1}
	for _, o := range deferralOperators {
		name := fmt.Sprintf("%v/shards=%d", o.format, o.shards)
		for _, kind := range []solvers.Kind{solvers.KindCG, solvers.KindPCG, solvers.KindBlockCG} {
			solve := func(a solvers.Operator) (uint64, int) {
				t.Helper()
				n := a.Rows()
				k := 1
				if kind == solvers.KindBlockCG {
					k = 2
				}
				x, b := core.NewMultiVector(n, k, core.SECDED64), core.NewMultiVector(n, k, core.SECDED64)
				for j := 0; j < k; j++ {
					rhs := shardRefVector(n)
					rhs[j] += 3
					b.Col(j).CopyFrom(rhs)
				}
				res, err := solvers.SolveBatch(kind, a, x, b, opt)
				if err != nil || !res.Converged {
					t.Fatalf("%s %v: %v, %+v", name, kind, err, res)
				}
				return trajectoryHash(x.Cols(), res.Result), res.Iterations
			}
			want, _ := solve(recoveryOperator(t, o.format, o.shards))
			pc := &privateCopy{MatrixOperator: recoveryOperator(t, o.format, o.shards).(solvers.MatrixOperator)}
			got, iters := solve(pc)
			if got != want {
				t.Errorf("%s %v: the fallback's trajectory differs from MatrixOperator's", name, kind)
			}
			if calls := 2 * iters; pc.calls != calls && (kind != solvers.KindBlockCG || pc.calls <= iters+1) {
				t.Errorf("%s %v: %d products in %d iterations, want %d", name, kind, pc.calls, iters, calls)
			}
		}
	}
}
