package coo

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/ecc"
)

func buildSrc(t *testing.T) *csr.Matrix {
	t.Helper()
	m := csr.Laplacian2D(9, 7)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func flipFloat(x float64, bit uint) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ 1<<bit)
}

func TestCOORoundTripAllSchemes(t *testing.T) {
	src := buildSrc(t)
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, src.Cols32())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, src.Rows())
	src.SpMV(want, x)
	for _, s := range core.Schemes {
		m, err := NewMatrix(src, Options{Scheme: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		back, err := m.ToCSR()
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := make([]float64, src.Rows())
		back.SpMV(got, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: operator changed at row %d: %g vs %g", s, i, got[i], want[i])
			}
		}
	}
}

func TestCOOSpMVMatchesCSR(t *testing.T) {
	src := buildSrc(t)
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, src.Cols32())
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	want := make([]float64, src.Rows())
	src.SpMV(want, xs)
	for _, s := range core.Schemes {
		m, err := NewMatrix(src, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		x := core.VectorFromSlice(xs, core.None)
		dst := core.NewVector(src.Rows(), core.None)
		if err := m.SpMV(dst, x); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := make([]float64, src.Rows())
		if err := dst.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-13 {
				t.Fatalf("%v: row %d: %g want %g", s, i, got[i], want[i])
			}
		}
	}
}

func TestCOOSingleFlipEveryField(t *testing.T) {
	src := buildSrc(t)
	for _, s := range core.ProtectingSchemes {
		for field := 0; field < 3; field++ {
			m, err := NewMatrix(src, Options{Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			var c core.Counters
			m.SetCounters(&c)
			switch field {
			case 0:
				m.RawVals()[11] = flipFloat(m.RawVals()[11], 19)
			case 1:
				m.RawRows()[11] ^= 1 << 7
			case 2:
				m.RawCols()[11] ^= 1 << 13
			}
			_, cerr := m.CheckAll()
			if s == core.SED {
				var fe *core.FaultError
				if !errors.As(cerr, &fe) {
					t.Fatalf("%v field %d: flip not detected: %v", s, field, cerr)
				}
				continue
			}
			if cerr != nil {
				t.Fatalf("%v field %d: flip not corrected: %v", s, field, cerr)
			}
			if c.Corrected() == 0 {
				t.Fatalf("%v field %d: no correction counted", s, field)
			}
			// Fully restored?
			back, err := m.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			if back.NNZ() != src.NNZ() {
				t.Fatalf("%v field %d: structure damaged", s, field)
			}
			for i := range back.Vals {
				if back.Vals[i] != src.Vals[i] || back.Cols[i] != src.Cols[i] {
					t.Fatalf("%v field %d: entry %d not restored", s, field, i)
				}
			}
		}
	}
}

func TestCOODoubleFlipDetectedSECDED(t *testing.T) {
	src := buildSrc(t)
	for _, s := range []core.Scheme{core.SECDED64, core.SECDED128} {
		m, err := NewMatrix(src, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		m.RawVals()[4] = flipFloat(m.RawVals()[4], 5)
		m.RawVals()[4] = flipFloat(m.RawVals()[4], 44)
		_, cerr := m.CheckAll()
		var fe *core.FaultError
		if !errors.As(cerr, &fe) {
			t.Fatalf("%v: double flip not detected: %v", s, cerr)
		}
	}
}

func TestCOOCRCDoubleFlipCorrected(t *testing.T) {
	src := buildSrc(t)
	m, err := NewMatrix(src, Options{Scheme: core.CRC32C})
	if err != nil {
		t.Fatal(err)
	}
	// Two flips inside one 8-element group (elements 0..7).
	m.RawVals()[1] = flipFloat(m.RawVals()[1], 30)
	m.RawCols()[5] ^= 1 << 9
	if _, cerr := m.CheckAll(); cerr != nil {
		t.Fatalf("crc group double flip not corrected: %v", cerr)
	}
	back, err := m.ToCSR()
	if err != nil {
		t.Fatal(err)
	}
	for i := range back.Vals {
		if back.Vals[i] != src.Vals[i] {
			t.Fatalf("value %d not restored", i)
		}
	}
}

func TestCOOSpMVCorrectsInFlight(t *testing.T) {
	src := buildSrc(t)
	m, err := NewMatrix(src, Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	var c core.Counters
	m.SetCounters(&c)
	m.RawVals()[20] = flipFloat(m.RawVals()[20], 33)
	x := core.NewVector(src.Cols32(), core.None)
	x.Fill(1)
	dst := core.NewVector(src.Rows(), core.None)
	if err := m.SpMV(dst, x); err != nil {
		t.Fatal(err)
	}
	if c.Corrected() == 0 {
		t.Fatal("in-flight correction missing")
	}
	got := make([]float64, src.Rows())
	if err := dst.CopyTo(got); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Abs(v-1) > 1e-12 {
			t.Fatalf("row %d: %g want 1 (A*1=1)", i, v)
		}
	}
}

func TestCOOBoundsCheckStopsWildIndex(t *testing.T) {
	src := buildSrc(t)
	m, err := NewMatrix(src, Options{Scheme: core.SED})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a row index into a huge in-mask value; SED detects the
	// parity violation before the scatter would go out of bounds, and the
	// bounds check is the second line of defence.
	m.RawRows()[3] |= 0x0FFF0000
	x := core.NewVector(src.Cols32(), core.None)
	dst := core.NewVector(src.Rows(), core.None)
	err = m.SpMV(dst, x)
	if err == nil {
		t.Fatal("wild index not caught")
	}
}

func TestCOODimensionLimits(t *testing.T) {
	wide, err := csr.New(1, 1<<29, []csr.Entry{{Row: 0, Col: 0, Val: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMatrix(wide, Options{Scheme: core.SECDED64}); err == nil {
		t.Fatal("2^29 columns accepted under secded64")
	}
	if _, err := NewMatrix(wide, Options{Scheme: core.SED}); err != nil {
		t.Fatalf("sed should allow 2^29 columns: %v", err)
	}
}

func TestCOOPaddingInvisible(t *testing.T) {
	// 5 entries: CRC32C pads to 8, SECDED128 pads to 6; padding must not
	// change the operator or the decoded structure.
	src, err := csr.New(3, 3, []csr.Entry{
		{Row: 0, Col: 0, Val: 1}, {Row: 0, Col: 2, Val: 2},
		{Row: 1, Col: 1, Val: 3}, {Row: 2, Col: 0, Val: 4}, {Row: 2, Col: 2, Val: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []core.Scheme{core.SECDED128, core.CRC32C} {
		m, err := NewMatrix(src, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		if m.NNZ() != 5 {
			t.Fatalf("%v: logical nnz %d", s, m.NNZ())
		}
		x := core.VectorFromSlice([]float64{1, 2, 3}, core.None)
		dst := core.NewVector(3, core.None)
		if err := m.SpMV(dst, x); err != nil {
			t.Fatal(err)
		}
		got := make([]float64, 3)
		if err := dst.CopyTo(got); err != nil {
			t.Fatal(err)
		}
		want := []float64{1*1 + 2*3, 3 * 2, 4*1 + 5*3}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%v: row %d: %g want %g", s, i, got[i], want[i])
			}
		}
	}
}

func TestCOOCRCBackendsAgree(t *testing.T) {
	src := buildSrc(t)
	hw, err := NewMatrix(src, Options{Scheme: core.CRC32C, Backend: ecc.Hardware})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewMatrix(src, Options{Scheme: core.CRC32C, Backend: ecc.Software})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hw.RawRows() {
		if hw.RawRows()[i] != sw.RawRows()[i] {
			t.Fatalf("row idx %d differs between backends", i)
		}
	}
}

func TestCOOAccessors(t *testing.T) {
	src := buildSrc(t)
	m, err := NewMatrix(src, Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 63 || m.Cols() != 63 || m.NNZ() != src.NNZ() {
		t.Fatalf("dims wrong: %d %d %d", m.Rows(), m.Cols(), m.NNZ())
	}
	if m.Scheme() != core.SECDED64 {
		t.Fatal("scheme wrong")
	}
	if err := m.SpMV(core.NewVector(1, core.None), core.NewVector(1, core.None)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestCOONoSingleFlipSilentQuick(t *testing.T) {
	src := buildSrc(t)
	rng := rand.New(rand.NewSource(9))
	for _, s := range core.ProtectingSchemes {
		for trial := 0; trial < 40; trial++ {
			m, err := NewMatrix(src, Options{Scheme: s})
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			switch rng.Intn(3) {
			case 0:
				k := rng.Intn(len(m.RawVals()))
				m.RawVals()[k] = flipFloat(m.RawVals()[k], uint(rng.Intn(64)))
			case 1:
				m.RawRows()[rng.Intn(len(m.RawRows()))] ^= 1 << uint(rng.Intn(32))
			case 2:
				m.RawCols()[rng.Intn(len(m.RawCols()))] ^= 1 << uint(rng.Intn(32))
			}
			_, cerr := m.CheckAll()
			if cerr != nil {
				continue // detected
			}
			back, err := m.ToCSR()
			if err != nil {
				t.Fatal(err)
			}
			for i := range back.Vals {
				if back.Vals[i] != want.Vals[i] || back.Cols[i] != want.Cols[i] {
					t.Fatalf("%v trial %d: silent corruption at %d", s, trial, i)
				}
			}
		}
	}
}

func TestParallelApplyBitIdentical(t *testing.T) {
	// Rows split across codeword-aligned, row-aligned ranges must produce
	// exactly the serial result for every scheme and worker count.
	plain := csr.Laplacian2D(13, 11)
	xs := make([]float64, plain.Cols32())
	for i := range xs {
		xs[i] = float64(i%19) - 9.25
	}
	for _, s := range core.Schemes {
		m, err := NewMatrix(plain, Options{Scheme: s})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		x := core.VectorFromSlice(xs, core.None)
		serial := core.NewVector(m.Rows(), core.None)
		if err := m.Apply(serial, x, 1); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		want := make([]float64, m.Rows())
		if err := serial.CopyTo(want); err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			dst := core.NewVector(m.Rows(), core.None)
			if err := m.Apply(dst, x, workers); err != nil {
				t.Fatalf("%v workers=%d: %v", s, workers, err)
			}
			got := make([]float64, m.Rows())
			if err := dst.CopyTo(got); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v workers=%d: row %d got %v want %v", s, workers, i, got[i], want[i])
				}
			}
		}
	}
}

func TestParallelApplyCorrectsInPlace(t *testing.T) {
	plain := csr.Laplacian2D(16, 16)
	m, err := NewMatrix(plain, Options{Scheme: core.SECDED64})
	if err != nil {
		t.Fatal(err)
	}
	var c core.Counters
	m.SetCounters(&c)
	m.RawVals()[37] = math.Float64frombits(math.Float64bits(m.RawVals()[37]) ^ 1<<30)
	x := core.NewVector(m.Cols(), core.None)
	x.Fill(1)
	dst := core.NewVector(m.Rows(), core.None)
	if err := m.Apply(dst, x, 4); err != nil {
		t.Fatal(err)
	}
	if c.Corrected() == 0 {
		t.Fatal("no correction recorded")
	}
	// Aligned ranges own their codewords, so the repair is committed.
	if corrected, err := m.Scrub(); err != nil || corrected != 0 {
		t.Fatalf("repair not committed: corrected=%d err=%v", corrected, err)
	}
}

// TestCOOCRCUncorrectableWritesNothing strikes group 1 with a data flip
// at image bit p0 and a stored checksum that also explains a message
// flip on slot bit p1 > p0. No stored bit can have flipped there, so the
// explanation is unsound: CheckAll must report a fault and leave storage
// exactly as struck, p0's flip included.
func TestCOOCRCUncorrectableWritesNothing(t *testing.T) {
	const g = 1
	syn := ecc.BitSyndromes(16 * crcGroup)
	for k := 0; k < 32; k++ {
		p1 := groupSlot(k)
		elem := p1 / 128
		for _, p0 := range []int{5, 128*elem + 64 + 27} { // a value bit of element 0, the top row bit below the slots
			m, err := NewMatrix(buildSrc(t), Options{Scheme: core.CRC32C})
			if err != nil {
				t.Fatal(err)
			}
			k0 := g*crcGroup + p0/128
			switch b := p0 % 128; {
			case b < 64:
				m.vals[k0] = flipFloat(m.vals[k0], uint(b))
			default:
				m.rowIdx[k0] ^= 1 << uint(b-64)
			}
			for j := 0; j < 32; j++ {
				if syn[p1]>>uint(j)&1 != 0 {
					m.rowIdx[g*crcGroup+j/4] ^= 1 << uint(28+j%4)
				}
			}
			vals := append([]float64(nil), m.vals...)
			rows := append([]uint32(nil), m.rowIdx...)
			cols := append([]uint32(nil), m.colIdx...)

			var fe *core.FaultError
			if _, err := m.CheckAll(); !errors.As(err, &fe) {
				t.Fatalf("slot %d, p0 %d: CheckAll = %v, want a FaultError", k, p0, err)
			}
			for i := range vals {
				if math.Float64bits(m.vals[i]) != math.Float64bits(vals[i]) || m.rowIdx[i] != rows[i] || m.colIdx[i] != cols[i] {
					t.Fatalf("slot %d, p0 %d: an uncorrectable verdict wrote element %d", k, p0, i)
				}
			}
		}
	}
}
