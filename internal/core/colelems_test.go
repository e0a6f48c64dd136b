package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The column-element codec is addressed by storage position: a CRC32C
// codeword is a run of storage-consecutive entries, whatever format laid
// them out — a CSR row, or a chunk of at most 13 four-entry columns of a
// SELL slice. These tests pin that seam — result class, counter deltas,
// commit discipline and DecodeLocal's stage — against an oracle derived
// from the schemes' stated capability, not against the kernels that
// happen to call the codec today.

const (
	ceBase = 2 // first storage position of the layout (pair-aligned)
	ceID0  = 7 // the id CheckRun reports for the layout's first run
)

// ceShape is one storage layout of entries: its CRC32C runs, in order.
type ceShape struct {
	name string
	runs []int
}

// ceShapes are the layouts every scheme is struck in: a CSR row of six
// entries (three SECDED128 pairs), a SELL slice of width 5 (one run of
// 20), and a SELL slice of width 14, which splits into a chunk of 13
// columns and one of 1.
var ceShapes = []ceShape{
	{"row6", []int{6}},
	{"slice5", []int{20}},
	{"slice14", []int{52, 4}},
}

func (sh ceShape) entries() int {
	n := 0
	for _, r := range sh.runs {
		n += r
	}
	return n
}

// run returns the index of the run holding entry j and the run's first
// entry.
func (sh ceShape) run(j int) (i, first int) {
	for i, r := range sh.runs {
		if j < first+r {
			return i, first
		}
		first += r
	}
	panic("entry outside the layout")
}

// ceFlip addresses one bit of the layout: bit b of entry j's 96-bit
// record, value bits 0..63 then the stored column word 64..95 (slot and
// reserved bits included).
type ceFlip struct{ entry, bit int }

// ceLayout is one shape laid out in storage after ceBase unrelated but
// valid filler entries.
type ceLayout struct {
	el    ColElems
	shape ceShape
	cols  []uint32 // the payload, masked
	vals  []float64
}

// splitmix64 returns a seeded stream of 64-bit words, cheap enough to
// seed once per case (seeding math/rand costs more than a case).
func splitmix64(seed int64) func() uint64 {
	x := uint64(seed)
	return func() uint64 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		return z ^ z>>31
	}
}

func newCELayout(s Scheme, seed int64, sh ceShape) *ceLayout {
	payload, filler := splitmix64(seed), splitmix64(seed^0x5DEECE66D)
	n := sh.entries()
	l := &ceLayout{
		el:    ColElems{Scheme: s, Vals: make([]float64, ceBase+n), Cols: make([]uint32, ceBase+n)},
		shape: sh,
		cols:  make([]uint32, n),
		vals:  make([]float64, n),
	}
	mask := l.el.Mask()
	for k := range l.el.Vals {
		l.el.Vals[k] = math.Float64frombits(filler())
		l.el.Cols[k] = uint32(filler()) & mask
	}
	for j := range l.cols {
		l.vals[j] = math.Float64frombits(payload())
		l.cols[j] = uint32(payload()) & mask
		l.el.Vals[ceBase+j], l.el.Cols[ceBase+j] = l.vals[j], l.cols[j]
	}
	if s == CRC32C {
		base := ceBase
		for _, r := range sh.runs {
			l.el.EncodeRun(base, r)
			base += r
		}
	} else {
		l.el.Encode(0, len(l.el.Cols))
	}
	return l
}

func (l *ceLayout) strike(flips []ceFlip) {
	for _, f := range flips {
		k := ceBase + f.entry
		if f.bit < 64 {
			l.el.Vals[k] = math.Float64frombits(math.Float64bits(l.el.Vals[k]) ^ 1<<uint(f.bit))
		} else {
			l.el.Cols[k] ^= 1 << uint(f.bit-64)
		}
	}
}

// check runs the codec's verify over the layout: the per-entry schemes
// scan the whole storage range, CRC32C checks every run in order,
// continuing past a fault so the full damage is counted (as SELL-C-σ's
// committing check of a slice does).
func (l *ceLayout) check(commit bool, c *Counters) (checks uint64, err error) {
	if l.el.Scheme != CRC32C {
		v := l.el.Check(0, len(l.el.Cols), commit, c)
		return v.Checks, v.Err
	}
	base := ceBase
	for i, r := range l.shape.runs {
		checks++
		if _, e := l.el.CheckRun(ceID0+i, base, r, commit, c); e != nil && err == nil {
			err = e
		}
		base += r
	}
	return checks, err
}

// stage is DecodeLocal over the layout: the whole range for the
// per-entry schemes, run by run under CRC32C.
func (l *ceLayout) stage() (cols []uint32, vals []float64, err error) {
	if l.el.Scheme != CRC32C {
		return l.el.DecodeLocal(ceID0, ceBase, l.shape.entries())
	}
	base := ceBase
	for i, r := range l.shape.runs {
		c, v, err := l.el.DecodeLocal(ceID0+i, base, r)
		if err != nil {
			return nil, nil, err
		}
		cols, vals = append(cols, c...), append(vals, v...)
		base += r
	}
	return cols, vals, nil
}

func (l *ceLayout) snapshot() ([]uint64, []uint32) {
	v := make([]uint64, len(l.el.Vals))
	for k, x := range l.el.Vals {
		v[k] = math.Float64bits(x)
	}
	return v, append([]uint32(nil), l.el.Cols...)
}

func sameStorage(av []uint64, ac []uint32, bv []uint64, bc []uint32) bool {
	for k := range av {
		if av[k] != bv[k] || ac[k] != bc[k] {
			return false
		}
	}
	return true
}

// ceOutcome is what one case observably did.
type ceOutcome struct {
	corrected, detected uint64
	failed              bool
}

// ceExpect derives the outcome the schemes' stated capability demands:
// per codeword, SECDED corrects one flip and detects two, CRC32C corrects
// up to two wherever they land in the run — value, column, reserved or
// slot byte. silent marks SED's blind spot (an even number of flips in
// one entry): the class is clean but the payload is wrong, so it is not
// compared.
func ceExpect(l *ceLayout, flips []ceFlip) (want ceOutcome, silent bool) {
	hits := map[int]int{} // flips per codeword
	for _, f := range flips {
		switch l.el.Scheme {
		case SECDED128:
			hits[(ceBase+f.entry)/2]++
		case CRC32C:
			run, _ := l.shape.run(f.entry)
			hits[run]++
		default:
			hits[f.entry]++
		}
	}
	for _, n := range hits {
		switch {
		case l.el.Scheme == SED && n%2 == 1:
			want.detected++
		case l.el.Scheme == SED:
			silent = true
		case l.el.Scheme == CRC32C || n == 1:
			want.corrected++
		default:
			want.detected++
		}
	}
	want.failed = want.detected > 0
	return want, silent
}

// runCECase encodes the seeded layout, strikes it, verifies it and
// asserts every invariant of the seam against the oracle.
func runCECase(t *testing.T, s Scheme, seed int64, sh ceShape, flips []ceFlip, commit bool) {
	t.Helper()
	name := fmt.Sprintf("%v %s commit=%v flips=%v", s, sh.name, commit, flips)
	l := newCELayout(s, seed, sh)
	l.strike(flips)
	struckV, struckC := l.snapshot()
	want, silent := ceExpect(l, flips)

	// The stage, taken from struck storage before any verify touched it.
	cols, vals, stageErr := l.stage()
	checkStage := func(when string) {
		t.Helper()
		if stageErr != nil {
			t.Fatalf("%s: DecodeLocal %s: %v", name, when, stageErr)
		}
		for j := range cols {
			if cols[j] != l.cols[j] || math.Float64bits(vals[j]) != math.Float64bits(l.vals[j]) {
				t.Fatalf("%s: DecodeLocal %s entry %d = (%x, %x), payload (%x, %x)", name, when, j,
					cols[j], math.Float64bits(vals[j]), l.cols[j], math.Float64bits(l.vals[j]))
			}
		}
	}
	switch {
	case !want.failed && !silent:
		checkStage("before verify")
	case want.failed && s != SED:
		var fe *FaultError
		if !errors.As(stageErr, &fe) {
			t.Fatalf("%s: DecodeLocal staged an uncorrectable codeword: %v", name, stageErr)
		}
	}
	if v, c := l.snapshot(); !sameStorage(v, c, struckV, struckC) {
		t.Fatalf("%s: DecodeLocal wrote storage", name)
	}

	var c Counters
	checks, err := l.check(commit, &c)
	got := ceOutcome{corrected: c.Corrected(), detected: c.Detected(), failed: err != nil}
	if got != want {
		t.Fatalf("%s: outcome %+v (err %v), want %+v", name, got, err, want)
	}
	var fe *FaultError
	if err != nil && (!errors.As(err, &fe) || fe.Structure != StructElements || fe.Scheme != s) {
		t.Fatalf("%s: error %v is not the codec's FaultError", name, err)
	}
	if c.Checks() != 0 || c.Bounds() != 0 {
		t.Fatalf("%s: codec counted checks/bounds itself: %+v", name, c.Snapshot())
	}
	wantChecks := uint64(len(l.el.Cols))
	if s == SECDED128 {
		wantChecks /= 2
	} else if s == CRC32C {
		wantChecks = uint64(len(sh.runs))
	}
	if checks != wantChecks {
		t.Fatalf("%s: %d checks, want %d", name, checks, wantChecks)
	}

	// Commit discipline: a committed repair restores the encoded storage;
	// everything else leaves storage as struck.
	wantV, wantC := struckV, struckC
	if commit && want.corrected > 0 && !want.failed {
		wantV, wantC = newCELayout(s, seed, sh).snapshot()
	}
	if v, cc := l.snapshot(); !sameStorage(v, cc, wantV, wantC) {
		t.Fatalf("%s: storage after verify is neither repaired nor untouched as the mode demands", name)
	}
	if commit && !want.failed && !silent {
		cols, vals, stageErr = l.stage()
		checkStage("after committed repair")
	}
}

// ceCases lists the clean layout, every single-bit flip of it and 600
// seeded double flips, half of them inside one entry.
func ceCases(rng *rand.Rand, n int) [][]ceFlip {
	cases := [][]ceFlip{nil}
	for j := 0; j < n; j++ {
		for b := 0; b < 96; b++ {
			cases = append(cases, []ceFlip{{j, b}})
		}
	}
	for i := 0; len(cases) < 1+96*n+600; i++ {
		a := ceFlip{rng.Intn(n), rng.Intn(96)}
		b := ceFlip{rng.Intn(n), rng.Intn(96)}
		if i%2 == 0 {
			b.entry = a.entry
		}
		if a != b {
			cases = append(cases, []ceFlip{a, b})
		}
	}
	return cases
}

// TestColElemsSingleAndDoubleFlips walks every single-bit flip of each
// layout and 600 seeded double flips — value, column, reserved and slot
// bits — through every scheme and both commit modes.
func TestColElemsSingleAndDoubleFlips(t *testing.T) {
	for _, s := range ProtectingSchemes {
		for _, sh := range ceShapes {
			rng := rand.New(rand.NewSource(int64(s) + 15))
			for _, flips := range ceCases(rng, sh.entries()) {
				for _, commit := range []bool{true, false} {
					runCECase(t, s, int64(s)*1000+int64(len(flips)), sh, flips, commit)
				}
			}
		}
	}
}

// TestColElemsCheckRunBoundsGuard: a run shorter than its four checksum
// slots, or one reaching past the end of storage, is what corrupted run
// delimiters (CSR row pointers) produce. It must surface as a counted
// FaultError naming the run, never as an out-of-range access, from the
// verify and from the stage alike.
func TestColElemsCheckRunBoundsGuard(t *testing.T) {
	l := newCELayout(CRC32C, 9, ceShapes[0])
	n := ceShapes[0].entries()
	for name, run := range map[string][2]int{
		"shorter than the checksum": {ceBase, 3},
		"empty":                     {ceBase, 0},
		"past end of storage":       {ceBase + 1, n},
		"negative width":            {ceBase, -1},
	} {
		var c Counters
		_, err := l.el.CheckRun(ceID0, run[0], run[1], true, &c)
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Index != ceID0 || c.Detected() != 1 {
			t.Fatalf("%s: err %v, counters %+v", name, err, c.Snapshot())
		}
		if _, _, err := l.el.DecodeLocal(ceID0, run[0], run[1]); !errors.As(err, &fe) || fe.Index != ceID0 {
			t.Fatalf("%s: DecodeLocal err %v", name, err)
		}
	}
}

// TestDecodeLocalNamesStorageCodeword: the stage is repaired on a copy,
// so an uncorrectable codeword in it must be reported by its storage
// position, as Check reports it, not by its position in the copy — also
// when the staged entries start inside a SECDED128 pair.
func TestDecodeLocalNamesStorageCodeword(t *testing.T) {
	sh := ceShapes[1]
	n := sh.entries()
	for _, s := range []Scheme{SED, SECDED64, SECDED128} {
		for j := 0; j < n; j++ {
			l := newCELayout(s, 11, sh)
			flips := []ceFlip{{j, 3}}
			if s != SED {
				flips = append(flips, ceFlip{j, 70})
			}
			l.strike(flips)
			var want *FaultError
			if err := l.el.Check(0, len(l.el.Cols), false, nil).Err; !errors.As(err, &want) {
				t.Fatalf("%v entry %d: Check err %v", s, j, err)
			}
			for _, base := range []int{ceBase, ceBase + 1} {
				if g := s.ElemGroup(); (ceBase+j)/g < base/g {
					continue // the struck codeword is outside this stage
				}
				var fe *FaultError
				if _, _, err := l.el.DecodeLocal(ceID0, base, ceBase+n-base); !errors.As(err, &fe) || fe.Index != want.Index {
					t.Fatalf("%v entry %d, stage at %d: err %v, want the FaultError of codeword %d", s, j, base, err, want.Index)
				}
			}
		}
	}
}

// FuzzColElems drives the same invariants from arbitrary payloads, flip
// positions and layouts.
func FuzzColElems(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0), uint8(0), uint8(0), uint8(0), false, true, uint8(0))
	f.Add(uint8(1), int64(2), uint8(3), uint8(40), uint8(3), uint8(95), true, false, uint8(1))
	f.Add(uint8(2), int64(3), uint8(0), uint8(91), uint8(1), uint8(12), true, true, uint8(2))
	f.Add(uint8(3), int64(4), uint8(5), uint8(90), uint8(0), uint8(88), true, false, uint8(2))
	f.Fuzz(func(t *testing.T, scheme uint8, seed int64, e0, b0, e1, b1 uint8, double, commit bool, shape uint8) {
		s := ProtectingSchemes[int(scheme)%len(ProtectingSchemes)]
		sh := ceShapes[int(shape)%len(ceShapes)]
		n := sh.entries()
		flips := []ceFlip{{int(e0) % n, int(b0) % 96}}
		if second := (ceFlip{int(e1) % n, int(b1) % 96}); double && second != flips[0] {
			flips = append(flips, second)
		}
		runCECase(t, s, seed, sh, flips, commit)
	})
}
