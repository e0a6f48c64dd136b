package precond

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/shard"
	"abft/internal/solvers"
)

func testMatrix() *csr.Matrix { return csr.Laplacian2D(12, 9) }

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

// TestPCGConvergesFaster: every preconditioner must cut PCG iterations
// below plain CG. Plain Jacobi included: the insulated boundary gives the
// stencil diagonals of 3, 4 and 5, so diagonal scaling is not a multiple
// of the identity and must save iterations (33 against CG's 35; a Jacobi
// that degenerated to the identity would tie).
func TestPCGConvergesFaster(t *testing.T) {
	src := testMatrix()
	pm, err := op.New(op.CSR, src, op.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a := solvers.MatrixOperator{M: pm, Workers: 1}
	solve := func(pre Preconditioner) solvers.Result {
		b := core.VectorFromSlice(refVector(src.Rows()), core.None)
		x := core.NewVector(src.Rows(), core.None)
		opt := solvers.Options{Tol: 1e-10, MaxIter: 10000}
		if pre != nil {
			opt.Preconditioner = pre
		}
		res, err := solvers.CG(a, x, b, opt)
		if err != nil || !res.Converged {
			t.Fatalf("solve: %v converged=%v", err, res.Converged)
		}
		return res
	}
	base := solve(nil)
	for _, k := range []Kind{Jacobi, BlockJacobi, SGS} {
		p, err := New(k, src, Options{Scheme: core.SECDED64})
		if err != nil {
			t.Fatal(err)
		}
		res := solve(p)
		if res.Iterations >= base.Iterations {
			t.Errorf("%v: %d iterations, plain CG %d", k, res.Iterations, base.Iterations)
		}
	}
}

// TestBlockJacobiShardBands: built over a sharded operator, block-Jacobi
// adopts the shard decomposition and still matches the unbanded result.
func TestBlockJacobiShardBands(t *testing.T) {
	src := testMatrix()
	sh, err := shard.New(src, shard.Options{Shards: 3, Format: op.CSR,
		Config: op.Config{Scheme: core.SECDED64, RowPtrScheme: core.SECDED64}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := For(BlockJacobi, sh, src, Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	bj := p.(*blockJacobiPre)
	if len(bj.Bands()) != sh.Shards() {
		t.Fatalf("bands %d, shards %d", len(bj.Bands()), sh.Shards())
	}
	for i, b := range bj.Bands() {
		r0, r1 := sh.ShardRange(i)
		if b[0] != r0 || b[1] != r1 {
			t.Fatalf("band %d is [%d,%d), shard is [%d,%d)", i, b[0], b[1], r0, r1)
		}
	}
	rs := refVector(src.Rows())
	want := refApply(t, BlockJacobi, src, rs)
	r := core.VectorFromSlice(rs, core.None)
	z := core.NewVector(src.Rows(), core.None)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
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
	// Block-Jacobi bands must tile [0, rows) exactly: a gap leaves z
	// rows unwritten, an overlap races concurrent block writes.
	src := testMatrix()
	const b = core.BlockLen
	for _, bands := range [][][2]int{
		{{0, b}},                          // gap at the tail
		{{0, 2 * b}, {b, src.Rows()}},     // overlap
		{{b, src.Rows()}},                 // gap at the head
		{{0, b + 2}, {b + 2, src.Rows()}}, // unaligned boundary
		{{0, src.Rows()}, {0, 0}},         // empty band
		{{0, src.Rows()}, {2 * b, b}},     // inverted band
	} {
		if _, err := New(BlockJacobi, src, Options{Bands: bands}); err == nil {
			t.Errorf("bands %v accepted", bands)
		}
	}
	if _, err := New(BlockJacobi, src, Options{Bands: [][2]int{{0, b}, {b, src.Rows()}}}); err != nil {
		t.Errorf("valid bands rejected: %v", err)
	}
}
