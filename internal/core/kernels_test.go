package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abft/internal/csr"
)

// spmvReference computes the expected protected SpMV result: the source
// vector is masked under xs before the multiply, and the result is masked
// under ds on storage.
func spmvReference(m *csr.Matrix, x []float64, xs, ds Scheme) []float64 {
	xm := make([]float64, len(x))
	vx := NewVector(1, xs)
	for i := range x {
		xm[i] = vx.Mask(x[i])
	}
	y := make([]float64, m.Rows())
	m.SpMV(y, xm)
	vd := NewVector(1, ds)
	for i := range y {
		y[i] = vd.Mask(y[i])
	}
	return y
}

func TestSpMVMatchesReferenceAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	src := csr.Laplacian2D(9, 7)
	x := randSlice(rng, src.Cols32())
	for _, es := range Schemes {
		for _, rs := range Schemes {
			for _, vs := range Schemes {
				m, err := NewMatrix(src, MatrixOptions{ElemScheme: es, RowPtrScheme: rs})
				if err != nil {
					t.Fatal(err)
				}
				xv := VectorFromSlice(x, vs)
				dst := NewVector(src.Rows(), vs)
				if err := SpMV(dst, m, xv, 1); err != nil {
					t.Fatalf("%v/%v/%v: %v", es, rs, vs, err)
				}
				want := spmvReference(src, x, vs, vs)
				got := make([]float64, src.Rows())
				if err := dst.CopyTo(got); err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%v/%v/%v: row %d: got %x want %x", es, rs, vs, i,
							math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

func TestSpMVParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	src := csr.Laplacian2D(12, 11)
	x := randSlice(rng, src.Cols32())
	for _, es := range []Scheme{None, SED, SECDED64, SECDED128, CRC32C} {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: es, RowPtrScheme: es})
		if err != nil {
			t.Fatal(err)
		}
		xv := VectorFromSlice(x, SECDED64)
		serial := NewVector(src.Rows(), SECDED64)
		if err := SpMV(serial, m, xv, 1); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 4, 7} {
			parallel := NewVector(src.Rows(), SECDED64)
			if err := SpMV(parallel, m, xv, workers); err != nil {
				t.Fatalf("%v workers=%d: %v", es, workers, err)
			}
			a := make([]float64, src.Rows())
			b := make([]float64, src.Rows())
			if err := serial.CopyTo(a); err != nil {
				t.Fatal(err)
			}
			if err := parallel.CopyTo(b); err != nil {
				t.Fatal(err)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v workers=%d row %d: %g vs %g", es, workers, i, a[i], b[i])
				}
			}
		}
	}
}

func TestSpMVDimensionMismatch(t *testing.T) {
	src := csr.Laplacian2D(4, 4)
	m, _ := NewMatrix(src, MatrixOptions{})
	if err := SpMV(NewVector(3, None), m, NewVector(16, None), 1); err == nil {
		t.Fatal("wrong dst length accepted")
	}
	if err := SpMV(NewVector(16, None), m, NewVector(3, None), 1); err == nil {
		t.Fatal("wrong x length accepted")
	}
}

func TestSpMVCorrectsMatrixFaultInFlight(t *testing.T) {
	src := csr.Laplacian2D(8, 8)
	for _, es := range []Scheme{SECDED64, SECDED128, CRC32C} {
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: es, RowPtrScheme: None})
		if err != nil {
			t.Fatal(err)
		}
		var c Counters
		m.SetCounters(&c)
		m.RawVals()[37] = flipFloatBit(m.RawVals()[37], 33)
		x := NewVector(64, None)
		x.Fill(1)
		dst := NewVector(64, None)
		if err := SpMV(dst, m, x, 1); err != nil {
			t.Fatalf("%v: %v", es, err)
		}
		if c.Corrected() == 0 {
			t.Fatalf("%v: fault not corrected during SpMV", es)
		}
		// Storage repaired: result equals the clean multiply.
		got := make([]float64, 64)
		if err := dst.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if math.Abs(v-1) > 1e-12 {
				t.Fatalf("%v: row %d = %g want 1 (A*1=1)", es, i, v)
			}
		}
	}
}

func TestSpMVReportsUncorrectable(t *testing.T) {
	src := csr.Laplacian2D(8, 8)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: SECDED64, RowPtrScheme: None})
	if err != nil {
		t.Fatal(err)
	}
	m.RawVals()[10] = flipFloatBit(m.RawVals()[10], 3)
	m.RawVals()[10] = flipFloatBit(m.RawVals()[10], 57)
	x := NewVector(64, None)
	dst := NewVector(64, None)
	err = SpMV(dst, m, x, 1)
	var fe *FaultError
	if !errors.As(err, &fe) || fe.Structure != StructElements {
		t.Fatalf("double flip not reported: %v", err)
	}
}

// TestSpMVBoundsCheckStopsWildIndex corrupts a column index between two
// products and requires the second to fail with a BoundsError instead of
// panicking or reading x's block padding (paper section VI-A-2): on the
// bounds-only sweeps of interval checking, and for unprotected elements
// whenever the row pointers or vectors are protected.
func TestSpMVBoundsCheckStopsWildIndex(t *testing.T) {
	type wildCase struct {
		name       string
		side       int // Laplacian2D(side, side)
		es, rs, vs Scheme
		interval   int
		strike     func(col uint32) uint32
	}
	cases := []wildCase{
		// Huge in-mask column, parity now stale; sweep 1 is bounds-only.
		{"sed interval", 8, SED, SED, None, 100, func(c uint32) uint32 { return c | 0x00FF_0000 }},
	}
	for _, pv := range [][2]Scheme{{SECDED64, None}, {None, SECDED64}} {
		at := fmt.Sprintf("none elements, %v row pointers, %v vectors", pv[0], pv[1])
		cases = append(cases,
			wildCase{at + ", bit 30", 5, None, pv[0], pv[1], 1, func(c uint32) uint32 { return c ^ 1<<30 }},
			// 25 rows pad x to 32 words: column 30 is padding.
			wildCase{at + ", column 30", 5, None, pv[0], pv[1], 1, func(uint32) uint32 { return 30 }})
	}
	for _, c := range cases {
		src := csr.Laplacian2D(c.side, c.side)
		m, err := NewMatrix(src, MatrixOptions{ElemScheme: c.es, RowPtrScheme: c.rs})
		if err != nil {
			t.Fatal(err)
		}
		m.SetCheckInterval(c.interval)
		n := src.Rows()
		x := NewVector(n, c.vs)
		dst := NewVector(n, None)
		if err := SpMV(dst, m, x, 1); err != nil { // sweep 0: full check, clean
			t.Fatalf("%s: %v", c.name, err)
		}
		m.RawCols()[20] = c.strike(m.RawCols()[20])
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: wild index panicked: %v", c.name, p)
				}
			}()
			var be *BoundsError
			if err := SpMV(dst, m, x, 1); !errors.As(err, &be) || be.Structure != StructElements {
				t.Errorf("%s: wild index not caught by range check: %v", c.name, err)
			}
		}()
	}
}

func TestSpMVIntervalSkipsChecks(t *testing.T) {
	src := csr.Laplacian2D(8, 8)
	m, err := NewMatrix(src, MatrixOptions{ElemScheme: SECDED64, RowPtrScheme: SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	m.SetCheckInterval(4)
	var c Counters
	m.SetCounters(&c)
	x := NewVector(64, None)
	dst := NewVector(64, None)
	for i := 0; i < 4; i++ {
		if err := SpMV(dst, m, x, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Only sweep 0 of the four should have checked matrix codewords.
	perSweep := uint64(src.NNZ()) // one check per element
	if got := c.Checks(); got >= 4*perSweep || got < perSweep {
		t.Fatalf("checks=%d, want about %d (one checked sweep of four)", got, perSweep)
	}
}

func TestDotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randSlice(rng, 101)
	b := randSlice(rng, 101)
	for _, s := range Schemes {
		av := VectorFromSlice(a, s)
		bv := VectorFromSlice(b, s)
		var want float64
		for i := range a {
			want += av.Mask(a[i]) * bv.Mask(b[i])
		}
		got, err := Dot(av, bv, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%v: %g want %g", s, got, want)
		}
	}
}

func TestDotParallelClose(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	a := randSlice(rng, 1000)
	av := VectorFromSlice(a, SED)
	serial, err := Dot(av, av, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		parallel, err := Dot(av, av, w)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(parallel-serial) > 1e-9*math.Abs(serial) {
			t.Fatalf("workers=%d: %g vs %g", w, parallel, serial)
		}
	}
}

func TestDotLengthMismatch(t *testing.T) {
	if _, err := Dot(NewVector(3, None), NewVector(4, None), 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestWaxpbyAllSchemes(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	x := randSlice(rng, 29)
	y := randSlice(rng, 29)
	for _, s := range Schemes {
		xv := VectorFromSlice(x, s)
		yv := VectorFromSlice(y, s)
		dst := NewVector(29, s)
		if err := Waxpby(dst, 2.5, xv, -0.5, yv, 1); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 29)
		if err := dst.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := dst.Mask(2.5*xv.Mask(x[i]) + -0.5*yv.Mask(y[i]))
			if got[i] != want {
				t.Fatalf("%v: elem %d: %g want %g", s, i, got[i], want)
			}
		}
	}
}

func TestWaxpbyAliasing(t *testing.T) {
	// p = r + beta*p, the CG update, aliases dst and y.
	r := []float64{1, 2, 3, 4, 5}
	p := []float64{10, 20, 30, 40, 50}
	rv := VectorFromSlice(r, SECDED64)
	pv := VectorFromSlice(p, SECDED64)
	if err := Waxpby(pv, 1, rv, 0.5, pv, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 5)
	if err := pv.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := pv.Mask(rv.Mask(r[i]) + 0.5*pv.Mask(p[i]))
		if got[i] != want {
			t.Fatalf("elem %d: %g want %g", i, got[i], want)
		}
	}
}

func TestCopyConvertsSchemes(t *testing.T) {
	data := []float64{1.5, 2.5, 3.5, 4.5, 5.5}
	src := VectorFromSlice(data, CRC32C)
	dst := NewVector(5, SED)
	if err := Copy(dst, src, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 5)
	if err := dst.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := dst.Mask(src.Mask(data[i]))
		if got[i] != want {
			t.Fatalf("elem %d: %g want %g", i, got[i], want)
		}
	}
	if err := Copy(dst, NewVector(9, SED), 1); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestAxpyRMWMatchesBuffered(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	x := randSlice(rng, 21)
	y := randSlice(rng, 21)
	for _, s := range ProtectingSchemes {
		xv := VectorFromSlice(x, s)
		y1 := VectorFromSlice(y, s)
		y2 := VectorFromSlice(y, s)
		if err := Axpy(y1, 1.25, xv, 1); err != nil {
			t.Fatal(err)
		}
		if err := AxpyRMW(y2, 1.25, xv); err != nil {
			t.Fatal(err)
		}
		a := make([]float64, 21)
		b := make([]float64, 21)
		if err := y1.CopyTo(a); err != nil {
			t.Fatal(err)
		}
		if err := y2.CopyTo(b); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: elem %d: buffered %g rmw %g", s, i, a[i], b[i])
			}
		}
	}
	if err := AxpyRMW(NewVector(3, SED), 1, NewVector(4, SED)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestVectorFaultSurfacesThroughKernels(t *testing.T) {
	a := VectorFromSlice(make([]float64, 16), SED)
	a.Raw()[7] ^= 1 << 22
	if _, err := Dot(a, a, 1); err == nil {
		t.Fatal("dot ignored vector fault")
	}
	b := VectorFromSlice(make([]float64, 16), SED)
	b.Raw()[3] ^= 1 << 9
	if err := Waxpby(b, 1, b, 0, b, 1); err == nil {
		t.Fatal("waxpby ignored vector fault")
	}
}
