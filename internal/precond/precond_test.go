package precond

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
)

func testMatrix() *csr.Matrix { return csr.Laplacian2D(12, 9) }

// MatrixForTest and VectorForTest hand the test operator and vector to
// the package precond_test solves (pcg_test.go), which import solvers —
// and solvers imports precond.
var (
	MatrixForTest = testMatrix
	VectorForTest = refVector
)

func refVector(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*13)%29) - 14 + float64(i%7)/8
	}
	return out
}

// refApply computes the unprotected reference application of each kind.
func refApply(t *testing.T, kind Kind, src *csr.Matrix, r []float64) []float64 {
	t.Helper()
	n := src.Rows()
	diag := make([]float64, n)
	src.Diagonal(diag)
	z := make([]float64, n)
	switch kind {
	case Jacobi:
		for i := range z {
			z[i] = r[i] / diag[i]
		}
	case BlockJacobi:
		// Solve each 4x4 diagonal block densely by Gaussian elimination
		// against the reference (re-derived independently of the
		// implementation's stored inverses).
		for b := 0; b*4 < n; b++ {
			var a [4][4]float64
			var rhs [4]float64
			for i := 0; i < 4; i++ {
				gi := b*4 + i
				if gi >= n {
					a[i][i] = 1
					continue
				}
				rhs[i] = r[gi]
				for k := src.RowPtr[gi]; k < src.RowPtr[gi+1]; k++ {
					if c := int(src.Cols[k]); c/4 == b {
						a[i][c%4] += src.Vals[k]
					}
				}
			}
			if !invertBlock(&a) {
				t.Fatal("reference block not invertible")
			}
			for i := 0; i < 4; i++ {
				if gi := b*4 + i; gi < n {
					z[gi] = a[i][0]*rhs[0] + a[i][1]*rhs[1] + a[i][2]*rhs[2] + a[i][3]*rhs[3]
				}
			}
		}
	case SGS:
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s := r[i]
			for k := src.RowPtr[i]; k < src.RowPtr[i+1]; k++ {
				if c := int(src.Cols[k]); c < i {
					s -= src.Vals[k] * y[c]
				}
			}
			y[i] = s / diag[i]
		}
		for i := n - 1; i >= 0; i-- {
			var s float64
			for k := src.RowPtr[i]; k < src.RowPtr[i+1]; k++ {
				if c := int(src.Cols[k]); c > i {
					s += src.Vals[k] * z[c]
				}
			}
			z[i] = y[i] - s/diag[i]
		}
	}
	return z
}

func forEachKindScheme(t *testing.T, fn func(t *testing.T, k Kind, s core.Scheme)) {
	t.Helper()
	for _, k := range ProtectingKinds {
		for _, s := range core.Schemes {
			t.Run(fmt.Sprintf("%v_%v", k, s), func(t *testing.T) { fn(t, k, s) })
		}
	}
}

// TestApplyMatchesReference: every kind x scheme pair must reproduce the
// unprotected reference application bit-for-bit (state values are stored
// exactly; only mantissa LSBs reserved by vector schemes differ, and the
// state vectors reserve none of the bits these references exercise).
func TestApplyMatchesReference(t *testing.T) {
	forEachKindScheme(t, func(t *testing.T, k Kind, s core.Scheme) {
		src := testMatrix()
		rs := refVector(src.Rows())
		p, err := New(k, src, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		if p.Rows() != src.Rows() || p.Kind() != k {
			t.Fatalf("identity: rows %d kind %v", p.Rows(), p.Kind())
		}
		want := refApply(t, k, src, rs)
		for _, workers := range []int{1, 4} {
			p2 := p
			if workers > 1 {
				if p2, err = New(k, src, Options{Scheme: s, Workers: workers}); err != nil {
					t.Fatal(err)
				}
			}
			r := core.VectorFromSlice(rs, core.None)
			z := core.NewVector(src.Rows(), core.None)
			if err := p2.Apply(z, r); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			got := make([]float64, src.Rows())
			if err := z.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-11*math.Max(1, math.Abs(want[i])) {
					t.Fatalf("workers=%d row %d: got %v want %v", workers, i, got[i], want[i])
				}
			}
		}
	})
}

// TestSingleFlipHandled pins the paper's capability floor on the
// preconditioner state: one bit flip in the protected setup product is
// detected by SED and corrected in place by SECDED64/SECDED128/CRC32C.
func TestSingleFlipHandled(t *testing.T) {
	forEachKindScheme(t, func(t *testing.T, k Kind, s core.Scheme) {
		if s == core.None {
			t.Skip("baseline has no protection")
		}
		src := testMatrix()
		p, err := New(k, src, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		var c core.Counters
		p.SetCounters(&c)
		st := p.RawState()[0]
		// A mid-mantissa data bit every vector scheme protects.
		st.Raw()[0] ^= 1 << 40

		r := core.VectorFromSlice(refVector(src.Rows()), core.None)
		z := core.NewVector(src.Rows(), core.None)
		applyErr := p.Apply(z, r)
		if s == core.SED {
			var fe *core.FaultError
			if applyErr == nil || !errors.As(applyErr, &fe) {
				t.Fatalf("SED did not detect: %v", applyErr)
			}
			return
		}
		if applyErr != nil {
			t.Fatalf("correctable flip surfaced as error: %v", applyErr)
		}
		if c.Corrected() == 0 {
			t.Fatal("no correction recorded")
		}
		// The repair must be committed: a scrub finds clean state.
		if corrected, err := p.Scrub(); err != nil || corrected != 0 {
			t.Fatalf("repair not committed: corrected=%d err=%v", corrected, err)
		}
	})
}

// TestApplyReadCountsPinned pins what one Apply reads, per kind, state
// scheme and read mode: the exact codeword checks, corrections and
// detections counted against the state vector and against r, with one
// correctable flip planted in the state. The verifying modes correct it
// (exclusive in storage, shared in the returned values only) and z is
// the clean product; unverified mode leaves the state's storage and
// counters untouched and z is the product over the masked stored state,
// flip included. The 12x9 operator has 14 vector blocks; block-Jacobi's
// state holds 56.
func TestApplyReadCountsPinned(t *testing.T) {
	type pin struct {
		kind   Kind
		scheme core.Scheme
		mode   core.ReadMode
		state  core.CounterSnapshot
		r      uint64
	}
	var pins []pin
	for _, s := range []core.Scheme{core.SECDED64, core.CRC32C} {
		perBlock := map[core.Scheme]uint64{core.SECDED64: 8, core.CRC32C: 1}[s]
		for _, k := range ProtectingKinds {
			stateBlocks := map[Kind]uint64{Jacobi: 14, BlockJacobi: 56, SGS: 14}[k]
			verified := core.CounterSnapshot{Checks: stateBlocks * perBlock, Corrected: 1}
			pins = append(pins,
				pin{k, s, core.ModeExclusive, verified, 14 * perBlock},
				pin{k, s, core.ModeShared, verified, 14 * perBlock},
				pin{k, s, core.ModeUnverified, core.CounterSnapshot{}, 14 * perBlock})
		}
	}
	src := testMatrix()
	rs := refVector(src.Rows())
	for _, pn := range pins {
		t.Run(fmt.Sprintf("%v_%v_%v", pn.kind, pn.scheme, pn.mode), func(t *testing.T) {
			p, err := New(pn.kind, src, Options{Scheme: pn.scheme})
			if err != nil {
				t.Fatal(err)
			}
			p.SetReadMode(pn.mode)
			st := p.RawState()[0]
			var sc, rc core.Counters
			st.SetCounters(&sc)
			st.Raw()[0] ^= 1 << 40
			struck := append([]uint64(nil), st.Raw()...)
			r := core.VectorFromSlice(rs, pn.scheme)
			r.SetCounters(&rc)
			z := core.NewVector(src.Rows(), core.None)
			if err := p.Apply(z, r); err != nil {
				t.Fatal(err)
			}
			if got := sc.Snapshot(); got != pn.state {
				t.Errorf("state counters %+v, want %+v", got, pn.state)
			}
			if got := rc.Snapshot(); got != (core.CounterSnapshot{Checks: pn.r}) {
				t.Errorf("r counters %+v, want %d checks", got, pn.r)
			}
			repaired := !slices.Equal(st.Raw(), struck)
			if repaired != (pn.mode == core.ModeExclusive) {
				t.Errorf("state storage repaired = %v in %v mode", repaired, pn.mode)
			}
			want := refApply(t, pn.kind, src, rs)
			if pn.mode == core.ModeUnverified {
				want = storedStateApply(pn.kind, src, st, rs)
			}
			got := make([]float64, src.Rows())
			if err := z.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-11*math.Max(1, math.Abs(want[i])) {
					t.Fatalf("row %d: got %v want %v", i, got[i], want[i])
				}
			}
		})
	}
}

// storedStateApply computes z = M^-1 r for kind with the preconditioner
// state taken as st stores it, masked and undecoded: what an unverified
// Apply must produce whatever flips the storage holds.
func storedStateApply(kind Kind, src *csr.Matrix, st *core.Vector, r []float64) []float64 {
	state := make([]float64, len(st.Raw()))
	for i, w := range st.Raw() {
		state[i] = st.Mask(math.Float64frombits(w))
	}
	n := src.Rows()
	z := make([]float64, n)
	switch kind {
	case Jacobi:
		for i := range z {
			z[i] = state[i] * r[i]
		}
	case BlockJacobi:
		for i := range z {
			b := i / diagBlock * diagBlock
			row := state[i*diagBlock:]
			for c := 0; c < diagBlock && b+c < n; c++ {
				z[i] += row[c] * r[b+c]
			}
		}
	case SGS:
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s := r[i]
			for k := src.RowPtr[i]; k < src.RowPtr[i+1]; k++ {
				if c := int(src.Cols[k]); c < i {
					s -= src.Vals[k] * y[c]
				}
			}
			y[i] = s * state[i]
		}
		for i := n - 1; i >= 0; i-- {
			var s float64
			for k := src.RowPtr[i]; k < src.RowPtr[i+1]; k++ {
				if c := int(src.Cols[k]); c > i {
					s += src.Vals[k] * z[c]
				}
			}
			z[i] = y[i] - state[i]*s
		}
	}
	return z
}

// TestDoubleFlipDetected: two flips in one SECDED64 codeword of the
// state must surface as a detected fault, not silent corruption.
func TestDoubleFlipDetected(t *testing.T) {
	for _, k := range ProtectingKinds {
		t.Run(k.String(), func(t *testing.T) {
			src := testMatrix()
			p, err := New(k, src, Options{Scheme: core.SECDED64})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			p.SetCounters(&c)
			p.RawState()[0].Raw()[0] ^= 1<<40 | 1<<41

			r := core.VectorFromSlice(refVector(src.Rows()), core.None)
			z := core.NewVector(src.Rows(), core.None)
			var fe *core.FaultError
			if err := p.Apply(z, r); err == nil || !errors.As(err, &fe) {
				t.Fatalf("double flip not detected: %v", err)
			}
			if fe.Structure != core.StructVector {
				t.Fatalf("unexpected structure %v", fe.Structure)
			}
			if c.Detected() == 0 {
				t.Fatal("detection not counted")
			}
		})
	}
}

// TestScrubRepairsState: a flip planted between applies is repaired by
// the patrol pass, the lifecycle cached preconditioners rely on.
func TestScrubRepairsState(t *testing.T) {
	for _, k := range ProtectingKinds {
		t.Run(k.String(), func(t *testing.T) {
			p, err := New(k, testMatrix(), Options{Scheme: core.SECDED64})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			p.SetCounters(&c)
			p.RawState()[0].Raw()[0] ^= 1 << 40
			corrected, err := p.Scrub()
			if err != nil || corrected != 1 {
				t.Fatalf("scrub: corrected=%d err=%v", corrected, err)
			}
			if again, err := p.Scrub(); err != nil || again != 0 {
				t.Fatalf("second scrub found leftovers: corrected=%d err=%v", again, err)
			}
		})
	}
}

// TestSGSScrubCoversMatrix: the Gauss-Seidel patrol must cover the
// protected matrix copy, not only the inverse diagonal.
func TestSGSScrubCoversMatrix(t *testing.T) {
	p, err := New(SGS, testMatrix(), Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	sgs := p.(*sgsPre)
	v := sgs.Matrix().RawVals()
	v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<40)
	if corrected, err := p.Scrub(); err != nil || corrected != 1 {
		t.Fatalf("matrix flip not scrubbed: corrected=%d err=%v", corrected, err)
	}
}

// TestSharedModeLeavesRepairToScrub: in shared mode Apply uses the
// correction but must not commit it; the flip stays for Scrub.
func TestSharedModeLeavesRepairToScrub(t *testing.T) {
	for _, k := range ProtectingKinds {
		t.Run(k.String(), func(t *testing.T) {
			src := testMatrix()
			p, err := New(k, src, Options{Scheme: core.SECDED64})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			p.SetCounters(&c)
			p.SetReadMode(core.ModeShared)
			p.RawState()[0].Raw()[0] ^= 1 << 40

			r := core.VectorFromSlice(refVector(src.Rows()), core.None)
			z := core.NewVector(src.Rows(), core.None)
			if err := p.Apply(z, r); err != nil {
				t.Fatal(err)
			}
			want := refApply(t, k, src, refVector(src.Rows()))
			got := make([]float64, src.Rows())
			if err := z.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-11*math.Max(1, math.Abs(want[i])) {
					t.Fatalf("shared apply row %d: got %v want %v", i, got[i], want[i])
				}
			}
			if corrected, err := p.Scrub(); err != nil || corrected != 1 {
				t.Fatalf("shared apply committed the repair: corrected=%d err=%v", corrected, err)
			}
		})
	}
}

// TestSGSSharedMatrixFlipCorrectedValuesUsed: in shared mode a
// correctable flip in the Gauss-Seidel matrix copy must not leak into
// the result — the row scanner streams locally corrected values — and
// the repair stays uncommitted for the patrol.
func TestSGSSharedMatrixFlipCorrectedValuesUsed(t *testing.T) {
	src := testMatrix()
	p, err := New(SGS, src, Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	var c core.Counters
	p.SetCounters(&c)
	p.SetReadMode(core.ModeShared)
	v := p.(*sgsPre).Matrix().RawVals()
	v[0] = math.Float64frombits(math.Float64bits(v[0]) ^ 1<<40)

	rs := refVector(src.Rows())
	r := core.VectorFromSlice(rs, core.None)
	z := core.NewVector(src.Rows(), core.None)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	want := refApply(t, SGS, src, rs)
	got := make([]float64, src.Rows())
	if err := z.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-11*math.Max(1, math.Abs(want[i])) {
			t.Fatalf("row %d: corrupted value leaked into shared apply: %v want %v", i, got[i], want[i])
		}
	}
	if c.Corrected() == 0 {
		t.Fatal("correction not counted")
	}
	if corrected, err := p.Scrub(); err != nil || corrected != 1 {
		t.Fatalf("shared apply committed the repair: corrected=%d err=%v", corrected, err)
	}
}

// TestBlockJacobiSplitInvariance: block-Jacobi chooses its split on
// every Apply from (rows, Workers), and its 4x4 blocks never cross a
// vector block, so neither the operator it is built for (unsharded, 2
// or 3 shards) nor the worker count moves z or its check counts.
// GOMAXPROCS is raised to 4 for the test, since par.Ranges clamps the
// split to it.
func TestBlockJacobiSplitInvariance(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	src := testMatrix()
	rs := refVector(src.Rows())
	for _, s := range []core.Scheme{core.SECDED64, core.CRC32C} {
		cfg := op.Config{Scheme: s, RowPtrScheme: s}
		unsharded, err := op.New(op.CSR, src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ops := map[string]core.ProtectedMatrix{"unsharded": unsharded}
		for _, n := range []int{2, 3} {
			sh, err := shard.New(src, shard.Options{Shards: n, Format: op.CSR, Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			if sh.Shards() != n {
				t.Fatalf("%d shards, want %d", sh.Shards(), n)
			}
			ops[fmt.Sprintf("%d-shard", n)] = sh
		}
		apply := func(m core.ProtectedMatrix, workers int) ([]uint64, core.CounterSnapshot) {
			t.Helper()
			p, err := For(BlockJacobi, m, src, Options{Scheme: s, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			p.SetCounters(&c)
			r := core.VectorFromSlice(rs, s)
			r.SetCounters(&c)
			z := core.NewVector(src.Rows(), s)
			if err := p.Apply(z, r); err != nil {
				t.Fatal(err)
			}
			return z.Raw(), c.Snapshot()
		}
		want, wantCounts := apply(unsharded, 1)
		if wantCounts.Checks == 0 {
			t.Fatalf("%v: the baseline Apply counted no checks", s)
		}
		for name, m := range ops {
			for workers := 1; workers <= 4; workers++ {
				got, counts := apply(m, workers)
				if !slices.Equal(got, want) {
					t.Errorf("%v, %s, %d workers: z differs from the unsharded 1-worker z", s, name, workers)
				}
				if counts != wantCounts {
					t.Errorf("%v, %s, %d workers: counters %+v, want %+v", s, name, workers, counts, wantCounts)
				}
			}
		}
	}
}

// TestBlockJacobiApplyAllocations: an Apply whose split is one range —
// one worker, or one runnable thread — allocates only the closure it
// hands par.ForEach.
func TestBlockJacobiApplyAllocations(t *testing.T) {
	src := testMatrix()
	for _, s := range []core.Scheme{core.SECDED64, core.CRC32C} {
		p, err := New(BlockJacobi, src, Options{Scheme: s, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		r := core.VectorFromSlice(refVector(src.Rows()), s)
		z := core.NewVector(src.Rows(), s)
		allocs := testing.AllocsPerRun(10, func() {
			if err := p.Apply(z, r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("%v: one-range Apply made %v allocations, want 1", s, allocs)
		}
	}
}

// TestParseKind covers the registry contract: round trips and the
// choices-listing error convention.
func TestParseKind(t *testing.T) {
	for _, k := range Kinds {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: %v %v", k, got, err)
		}
	}
	_, err := ParseKind("ilu")
	if err == nil {
		t.Fatal("bogus kind accepted")
	}
	if want := "choices: none, jacobi, bjacobi, sgs"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not list %q", err, want)
	}
}

// TestRejectsBadInputs: non-square operators, zero diagonals and the
// none kind must fail loudly.
func TestRejectsBadInputs(t *testing.T) {
	rect, err := csr.New(4, 8, []csr.Entry{{Row: 0, Col: 0, Val: 1}, {Row: 1, Col: 1, Val: 1},
		{Row: 2, Col: 2, Val: 1}, {Row: 3, Col: 3, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Jacobi, rect, Options{}); err == nil {
		t.Fatal("rectangular operator accepted")
	}
	if _, err := New(None, testMatrix(), Options{}); err == nil {
		t.Fatal("kind none built a preconditioner")
	}
	zeroDiag, err := csr.New(4, 4, []csr.Entry{{Row: 0, Col: 1, Val: 1}, {Row: 1, Col: 0, Val: 1},
		{Row: 2, Col: 2, Val: 1}, {Row: 3, Col: 3, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Jacobi, zeroDiag, Options{}); err == nil {
		t.Fatal("zero diagonal accepted")
	}
}
