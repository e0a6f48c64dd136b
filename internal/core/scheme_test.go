package core

import (
	"math"
	"testing"
)

func TestSchemeStringsAndParse(t *testing.T) {
	for _, s := range Schemes {
		got, err := ParseScheme(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v: got %v err %v", s, got, err)
		}
	}
	for in, want := range map[string]Scheme{
		"":       None,
		"parity": SED,
		"secded": SECDED64,
		"crc":    CRC32C,
	} {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Fatalf("alias %q: got %v err %v", in, got, err)
		}
	}
	if _, err := ParseScheme("hamming-banana"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if Scheme(200).String() == "" {
		t.Fatal("unknown scheme should format")
	}
}

func TestSchemeGroupSizes(t *testing.T) {
	cases := map[Scheme][3]int{ // vec group, elem group, rowptr group
		None:      {1, 1, 1},
		SED:       {1, 1, 1},
		SECDED64:  {1, 1, 2},
		SECDED128: {2, 2, 4},
		CRC32C:    {BlockLen, 0, 8},
	}
	for s, want := range cases {
		if s.VecGroup() != want[0] {
			t.Fatalf("%v vec group %d want %d", s, s.VecGroup(), want[0])
		}
		if s.ElemGroup() != want[1] {
			t.Fatalf("%v elem group %d want %d", s, s.ElemGroup(), want[1])
		}
		if s.RowPtrGroup() != want[2] {
			t.Fatalf("%v rowptr group %d want %d", s, s.RowPtrGroup(), want[2])
		}
	}
}

func TestSchemeReservedBitsMatchPaper(t *testing.T) {
	// Paper Fig 3: SED 1 LSB, SECDED64 8, SECDED128 5 per double, CRC 8.
	want := map[Scheme]int{None: 0, SED: 1, SECDED64: 8, SECDED128: 5, CRC32C: 8}
	for s, bits := range want {
		if s.VecReservedBits() != bits {
			t.Fatalf("%v reserved %d want %d", s, s.VecReservedBits(), bits)
		}
	}
}

func TestSchemeLimitsMatchPaper(t *testing.T) {
	// Paper section VI-A: SED allows 2^31-1 columns, SECDED/CRC 2^24-1;
	// row pointers allow 2^31-1 under SED and 2^28-1 otherwise.
	if SED.MaxCols() != 1<<31-1 || SECDED64.MaxCols() != 1<<24-1 ||
		CRC32C.MaxCols() != 1<<24-1 {
		t.Fatal("column limits diverge from the paper")
	}
	if SED.MaxNNZ() != 1<<31-1 || SECDED64.MaxNNZ() != 1<<28-1 ||
		CRC32C.MaxNNZ() != 1<<28-1 {
		t.Fatal("nnz limits diverge from the paper")
	}
	if None.MaxCols() != 1<<32-1 || None.MaxNNZ() != 1<<32-1 {
		t.Fatal("unprotected limits wrong")
	}
}

func TestSchemeMasksClearReservedBits(t *testing.T) {
	for _, s := range Schemes {
		mask := s.vecMask()
		if bitsSet := 64 - popcount64(mask); bitsSet != s.VecReservedBits() {
			t.Fatalf("%v mask clears %d bits, want %d", s, bitsSet, s.VecReservedBits())
		}
		// The mask must only clear mantissa LSBs, never exponent or sign.
		x := math.Float64bits(1.5)
		if x&mask>>52 != x>>52 {
			t.Fatalf("%v mask touches exponent bits", s)
		}
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestSchemeCapabilities(t *testing.T) {
	if CRC32C.MinRowEntries() != 4 || SED.MinRowEntries() != 0 {
		t.Fatal("min row entries wrong")
	}
}

func TestStructureStrings(t *testing.T) {
	if StructVector.String() != "vector" || StructElements.String() != "elements" ||
		StructRowPtr.String() != "rowptr" {
		t.Fatal("structure strings wrong")
	}
	if Structure(9).String() == "" {
		t.Fatal("unknown structure should format")
	}
}

func TestCounterSnapshotArithmetic(t *testing.T) {
	a := CounterSnapshot{Checks: 1, Corrected: 2, Detected: 3, Bounds: 4}
	b := CounterSnapshot{Checks: 10, Corrected: 20, Detected: 30, Bounds: 40}
	sum := a.Add(b)
	if sum.Checks != 11 || sum.Corrected != 22 || sum.Detected != 33 || sum.Bounds != 44 {
		t.Fatalf("add wrong: %+v", sum)
	}
	if sum.String() == "" {
		t.Fatal("snapshot should format")
	}
}

func TestNilCountersSafe(t *testing.T) {
	var c *Counters
	c.AddChecks(1)
	c.AddCorrected(1)
	c.AddDetected(1)
	c.AddBounds(1)
	if c.Checks() != 0 || c.Corrected() != 0 || c.Detected() != 0 || c.Bounds() != 0 {
		t.Fatal("nil counters should read zero")
	}
}

func TestFaultErrorMessages(t *testing.T) {
	fe := &FaultError{Structure: StructElements, Scheme: SECDED64, Index: 7, Detail: "x"}
	if fe.Error() == "" {
		t.Fatal("fault error should format")
	}
	be := &BoundsError{Structure: StructRowPtr, Index: 3, Value: 9, Limit: 5}
	if be.Error() == "" {
		t.Fatal("bounds error should format")
	}
}
