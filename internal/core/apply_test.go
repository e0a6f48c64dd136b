package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abft/internal/csr"
)

func TestMultiVectorBasics(t *testing.T) {
	mv := NewMultiVector(10, 3, SECDED64)
	if mv.Len() != 10 || mv.K() != 3 || mv.Scheme() != SECDED64 {
		t.Fatalf("unexpected geometry: len=%d k=%d scheme=%v", mv.Len(), mv.K(), mv.Scheme())
	}
	if mv.Blocks() != mv.Col(0).Blocks() {
		t.Fatalf("Blocks mismatch: %d vs %d", mv.Blocks(), mv.Col(0).Blocks())
	}
	c := &Counters{}
	mv.SetCounters(c)
	for j := 0; j < 3; j++ {
		mv.Col(j).Fill(float64(j + 1))
	}
	buf := make([]float64, mv.Blocks()*BlockLen)
	for j := 0; j < 3; j++ {
		if err := mv.Col(j).Read(0, mv.Blocks(), buf, ModeExclusive); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if buf[i] != float64(j+1) {
				t.Fatalf("col %d elem %d: got %g", j, i, buf[i])
			}
		}
	}
	if c.Checks() == 0 {
		t.Fatal("column reads accounted no checks on the shared counters")
	}
	if _, err := mv.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

func TestWrapMultiVectorValidates(t *testing.T) {
	a := NewVector(8, SED)
	b := NewVector(8, SED)
	mv, err := WrapMultiVector(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if mv.K() != 2 || mv.Col(1) != b {
		t.Fatal("wrap did not share columns")
	}
	if _, err := WrapMultiVector(); err == nil {
		t.Fatal("empty wrap accepted")
	}
	if _, err := WrapMultiVector(a, NewVector(9, SED)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := WrapMultiVector(a, NewVector(8, CRC32C)); err == nil {
		t.Fatal("scheme mismatch accepted")
	}
}

// TestApplyBatchMatchesApply checks the tentpole invariant on the CSR
// kernel directly: one batched pass is bit-identical to k independent
// single-RHS products, per scheme, serial and parallel.
func TestApplyBatchMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	src := csr.Laplacian2D(11, 9)
	const k = 3
	xs := make([][]float64, k)
	for j := range xs {
		xs[j] = randSlice(rng, src.Cols32())
	}
	for _, es := range Schemes {
		for _, vs := range []Scheme{None, SECDED64} {
			m, err := NewMatrix(src, MatrixOptions{ElemScheme: es, RowPtrScheme: es})
			if err != nil {
				t.Fatal(err)
			}
			x := NewMultiVector(src.Cols32(), k, vs)
			for j := range xs {
				for b := 0; b*BlockLen < len(xs[j]); b++ {
					var blk [BlockLen]float64
					copy(blk[:], xs[j][b*BlockLen:])
					x.Col(j).WriteBlock(b, &blk)
				}
			}
			for _, workers := range []int{1, 4} {
				dst := NewMultiVector(src.Rows(), k, vs)
				if err := m.ApplyBatch(dst, x, workers); err != nil {
					t.Fatalf("%v/%v workers=%d: %v", es, vs, workers, err)
				}
				for j := 0; j < k; j++ {
					want := NewVector(src.Rows(), vs)
					if err := m.Apply(want, x.Col(j), workers); err != nil {
						t.Fatal(err)
					}
					got := make([]float64, src.Rows())
					ref := make([]float64, src.Rows())
					if err := dst.Col(j).CopyTo(got); err != nil {
						t.Fatal(err)
					}
					if err := want.CopyTo(ref); err != nil {
						t.Fatal(err)
					}
					for i := range ref {
						if got[i] != ref[i] {
							t.Fatalf("%v/%v workers=%d col %d row %d: got %x want %x",
								es, vs, workers, j, i,
								math.Float64bits(got[i]), math.Float64bits(ref[i]))
						}
					}
				}
			}
		}
	}
}

func TestApplyBatchDimensionMismatch(t *testing.T) {
	src := csr.Laplacian2D(4, 4)
	m, _ := NewMatrix(src, MatrixOptions{})
	if err := m.ApplyBatch(NewMultiVector(3, 2, None), NewMultiVector(16, 2, None), 1); err == nil {
		t.Fatal("wrong dst length accepted")
	}
	if err := m.ApplyBatch(NewMultiVector(16, 2, None), NewMultiVector(16, 3, None), 1); err == nil {
		t.Fatal("width mismatch accepted")
	}
}

// TestApplyBatchCorrectsFaultInFlight flips one storage bit and checks
// that a committing batched pass repairs it while producing the clean
// product in every column.
func TestApplyBatchCorrectsFaultInFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	src := csr.Laplacian2D(8, 8)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: SECDED64, RowPtrScheme: SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	c := &Counters{}
	m.SetCounters(c)
	const k = 2
	x := NewMultiVector(src.Cols32(), k, None)
	for j := 0; j < k; j++ {
		data := randSlice(rng, src.Cols32())
		for b := 0; b*BlockLen < len(data); b++ {
			var blk [BlockLen]float64
			copy(blk[:], data[b*BlockLen:])
			x.Col(j).WriteBlock(b, &blk)
		}
	}
	clean := NewMultiVector(src.Rows(), k, None)
	if err := m.ApplyBatch(clean, x, 1); err != nil {
		t.Fatal(err)
	}
	m.RawVals()[7] = math.Float64frombits(math.Float64bits(m.RawVals()[7]) ^ 1<<33)
	dst := NewMultiVector(src.Rows(), k, None)
	if err := m.ApplyBatch(dst, x, 1); err != nil {
		t.Fatal(err)
	}
	if c.Corrected() != 1 {
		t.Fatalf("corrected = %d, want 1", c.Corrected())
	}
	for j := 0; j < k; j++ {
		a := make([]float64, src.Rows())
		b := make([]float64, src.Rows())
		if err := clean.Col(j).CopyTo(a); err != nil {
			t.Fatal(err)
		}
		if err := dst.Col(j).CopyTo(b); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("col %d row %d: %g vs %g", j, i, a[i], b[i])
			}
		}
	}
}

// TestApplySourceChecksExact pins the x side of the one apply skeleton:
// every source codeword is verified exactly once per verified sweep —
// Blocks x checksPerBlock per column, whatever the sparsity, worker count
// or width — an interval (range-check-only) sweep still verifies x, and
// an unverified sweep verifies nothing.
func TestApplySourceChecksExact(t *testing.T) {
	src := csr.Laplacian2D(10, 9)
	for _, s := range Schemes {
		for _, workers := range []int{1, 3} {
			for _, k := range []int{1, 3, 4, 9} {
				m, err := NewMatrix(src, MatrixOptions{ElemScheme: s, RowPtrScheme: s})
				if err != nil {
					t.Fatal(err)
				}
				m.SetCheckInterval(2)
				x := NewMultiVector(src.Cols32(), k, s)
				dst := NewMultiVector(src.Rows(), k, s)
				var xc, mc Counters
				x.SetCounters(&xc)
				m.SetCounters(&mc)
				want := uint64(k*x.Blocks()) * x.Col(0).checksPerBlock()
				sweep := func(name string, unverified bool, want uint64) {
					t.Helper()
					before := xc.Checks()
					var err error
					switch {
					case unverified && k == 1:
						err = m.ApplyUnverified(dst.Col(0), x.Col(0), workers)
					case unverified:
						err = m.Product(dst.cols, x.cols, workers, Sweep{})
					case k == 1:
						err = m.Apply(dst.Col(0), x.Col(0), workers)
					default:
						err = m.ApplyBatch(dst, x, workers)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got := xc.Checks() - before; got != want {
						t.Fatalf("%v workers=%d k=%d %s sweep: %d source checks, want %d", s, workers, k, name, got, want)
					}
				}
				sweep("checking", false, want)
				matrixChecks := mc.Checks()
				sweep("interval", false, want)
				if s != None && mc.Checks() != matrixChecks {
					t.Fatalf("%v: interval sweep verified %d matrix codewords", s, mc.Checks()-matrixChecks)
				}
				sweep("unverified", true, 0)
			}
		}
	}
}

// randomSparse builds the differential-test operators: a rows x cols
// matrix (cols > rows is the shard-local shape) with random sparsity,
// empty rows, one dense row and duplicate (row, column) entries.
func randomSparse(rng *rand.Rand, rows, cols int) *csr.Matrix {
	var entries []csr.Entry
	dense := rng.Intn(rows)
	for r := 0; r < rows; r++ {
		switch {
		case r == dense:
			for c := 0; c < cols; c++ {
				entries = append(entries, csr.Entry{Row: r, Col: c, Val: rng.NormFloat64()})
			}
		case r%5 == 1: // empty row
		default:
			for n := 1 + rng.Intn(7); n > 0; n-- {
				e := csr.Entry{Row: r, Col: rng.Intn(cols), Val: rng.NormFloat64()}
				entries = append(entries, e)
				if rng.Intn(4) == 0 { // duplicate entry, summed by the product
					e.Val = rng.NormFloat64()
					entries = append(entries, e)
				}
			}
		}
	}
	m, err := csr.New(rows, cols, entries)
	if err != nil {
		panic(err)
	}
	return m
}

// TestApplyDifferentialRandomSparsity runs the one CSR kernel against
// the unprotected reference on random sparsity — row counts not
// divisible by 4 or 8, rectangular operators, empty, dense and
// duplicate-entry rows — across scheme x read mode x workers x width:
// every column must equal csr.Matrix.SpMV on the masked inputs bit for
// bit, which also makes it identical to width 1 / workers 1. Shared-mode
// and parallel rows additionally plant one flip, so the row that holds
// it is dirty and takes the staged branch, and must still match.
func TestApplyDifferentialRandomSparsity(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dim := range [][2]int{{1, 3}, {7, 7}, {13, 21}, {30, 45}, {67, 67}} {
		src := randomSparse(rng, dim[0], dim[1])
		for _, s := range Schemes {
			for _, mode := range []ReadMode{ModeExclusive, ModeShared, ModeUnverified} {
				for _, workers := range []int{1, 3} {
					for _, k := range []int{1, 3, 4, 9} {
						name := fmt.Sprintf("%dx%d/%v/%v/w%d/k%d", dim[0], dim[1], s, mode, workers, k)
						m, err := NewMatrix(src, MatrixOptions{ElemScheme: s, RowPtrScheme: s})
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var c Counters
						m.SetCounters(&c)
						m.SetReadMode(mode)
						// Shared sweeps and parallel workers cannot commit: the
						// row holding the planted flip is dirty and is staged.
						staged := (mode == ModeShared || mode == ModeExclusive && workers > 1) && s != None && s != SED
						if staged {
							v := m.RawVals()
							i := rng.Intn(len(v))
							v[i] = math.Float64frombits(math.Float64bits(v[i]) ^ 1<<uint(rng.Intn(64)))
						}
						cols := make([]*Vector, k)
						want := make([][]float64, k)
						for j := range want {
							cols[j] = VectorFromSlice(randSlice(rng, src.Cols32()), s)
							masked := make([]float64, src.Cols32())
							if err := cols[j].CopyTo(masked); err != nil {
								t.Fatal(err)
							}
							want[j] = make([]float64, src.Rows())
							src.SpMV(want[j], masked)
						}
						x, err := WrapMultiVector(cols...)
						if err != nil {
							t.Fatal(err)
						}
						dst := NewMultiVector(src.Rows(), k, None)
						if k == 1 {
							err = m.Apply(dst.Col(0), x.Col(0), workers)
						} else if mode == ModeUnverified {
							err = m.Product(dst.cols, x.cols, workers, Sweep{})
						} else {
							err = m.ApplyBatch(dst, x, workers)
						}
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for j := range want {
							got := make([]float64, src.Rows())
							if err := dst.Col(j).CopyTo(got); err != nil {
								t.Fatal(err)
							}
							for i := range got {
								if math.Float64bits(got[i]) != math.Float64bits(want[j][i]) {
									t.Fatalf("%s col %d row %d: got %x want %x", name, j, i,
										math.Float64bits(got[i]), math.Float64bits(want[j][i]))
								}
							}
						}
						if staged {
							// A SECDED128 pair straddling two rows is verified by
							// both, so a no-commit sweep counts its flip twice.
							if n := c.Corrected(); n != 1 && !(s == SECDED128 && n == 2) {
								t.Fatalf("%s: planted flip corrected %d times, want 1", name, n)
							}
							if n, err := m.CheckAll(); mode == ModeShared && n != 1 || err != nil {
								t.Fatalf("%s: shared sweep repaired storage (scrub found %d, %v)", name, n, err)
							}
						}
					}
				}
			}
		}
	}
}
