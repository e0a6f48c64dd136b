package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The column-element codec is addressed by storage position, so the same
// run of (value, column) entries must behave identically wherever a
// format lays it out: contiguously (a CSR row, stride 1) or interleaved
// with other lanes (a SELL lane, stride 4). These tests pin that seam —
// result class, counter deltas, commit discipline and DecodeLocal's
// stage — against an oracle derived from the schemes' stated capability,
// not against the kernels that happen to call the codec today.

const (
	ceRunLen = 6 // entries per run: >= 4 (CRC32C slots) and spans three pairs
	ceBase   = 2 // first storage position of the run (pair-aligned)
	ceRunID  = 7 // the id CheckRun reports in its FaultError
)

// ceFlip addresses one bit of a run: bit b of entry j's 96-bit record,
// value bits 0..63 then the stored column word 64..95 (slot bits
// included).
type ceFlip struct{ entry, bit int }

// ceLayout is one run laid out in storage at a given stride, surrounded
// by unrelated but valid filler entries.
type ceLayout struct {
	el     ColElems
	stride int
	cols   []uint32 // the run's payload, masked
	vals   []float64
	buf    []byte
}

func newCELayout(s Scheme, seed int64, stride int) *ceLayout {
	payload := rand.New(rand.NewSource(seed))
	filler := rand.New(rand.NewSource(seed ^ 0x5DEECE66D))
	n := ceBase + ceRunLen*stride
	l := &ceLayout{
		el:     ColElems{Scheme: s, Vals: make([]float64, n), Cols: make([]uint32, n)},
		stride: stride,
		cols:   make([]uint32, ceRunLen),
		vals:   make([]float64, ceRunLen),
		buf:    make([]byte, 12*ceRunLen),
	}
	mask := l.el.Mask()
	for k := range l.el.Vals {
		l.el.Vals[k] = math.Float64frombits(filler.Uint64())
		l.el.Cols[k] = filler.Uint32() & mask
	}
	for j := range l.cols {
		l.vals[j] = math.Float64frombits(payload.Uint64())
		l.cols[j] = payload.Uint32() & mask
		l.el.Vals[l.pos(j)], l.el.Cols[l.pos(j)] = l.vals[j], l.cols[j]
	}
	if s == CRC32C {
		l.el.EncodeRun(ceBase, ceRunLen, stride, l.buf)
	} else {
		l.el.Encode(0, n)
	}
	return l
}

func (l *ceLayout) pos(j int) int { return ceBase + j*l.stride }

func (l *ceLayout) strike(flips []ceFlip) {
	for _, f := range flips {
		k := l.pos(f.entry)
		if f.bit < 64 {
			l.el.Vals[k] = math.Float64frombits(math.Float64bits(l.el.Vals[k]) ^ 1<<uint(f.bit))
		} else {
			l.el.Cols[k] ^= 1 << uint(f.bit-64)
		}
	}
}

// check runs the codec's verify over the run: the per-entry schemes scan
// the whole storage range, CRC32C the run itself.
func (l *ceLayout) check(commit bool, c *Counters) (checks uint64, err error) {
	if l.el.Scheme == CRC32C {
		_, err = l.el.CheckRun(ceRunID, ceBase, ceRunLen, l.stride, l.buf, commit, c)
		return 1, err
	}
	_, checks, err = l.el.Check(0, len(l.el.Cols), commit, c)
	return checks, err
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

// ceOutcome is what one case observably did; two layouts of the same run
// must agree on it whenever the struck codewords do not depend on the
// layout.
type ceOutcome struct {
	corrected, detected uint64
	failed              bool
}

// ceExpect derives the outcome the schemes' stated capability demands.
// silent marks SED's blind spot (an even number of flips in one entry):
// the class is clean but the payload is wrong, so it is not compared.
func ceExpect(l *ceLayout, flips []ceFlip) (want ceOutcome, silent bool) {
	hits := map[int]int{} // visible flips per codeword
	for _, f := range flips {
		switch l.el.Scheme {
		case SECDED128:
			hits[l.pos(f.entry)/2]++
		case CRC32C:
			// The top byte of entries past the fourth holds no checksum
			// slot and is masked out of the message: flips there are
			// invisible and harmless.
			if f.bit < 88 || f.entry < 4 {
				hits[0]++
			}
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

// runCECase encodes the seeded run at the given stride, strikes it,
// verifies it and asserts every invariant of the seam against the
// oracle. It returns the observed outcome for cross-layout comparison.
func runCECase(t *testing.T, s Scheme, seed int64, stride int, flips []ceFlip, commit bool) ceOutcome {
	t.Helper()
	name := fmt.Sprintf("%v stride=%d commit=%v flips=%v", s, stride, commit, flips)
	l := newCELayout(s, seed, stride)
	l.strike(flips)
	struckV, struckC := l.snapshot()
	want, silent := ceExpect(l, flips)

	// The stage, taken from struck storage before any verify touched it.
	cols, vals, stageErr := l.el.DecodeLocal(ceRunID, ceBase, ceRunLen, stride)
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
		wantChecks = 1
	}
	if checks != wantChecks {
		t.Fatalf("%s: %d checks, want %d", name, checks, wantChecks)
	}

	// Commit discipline: a committed repair restores the encoded storage
	// (invisible flips aside); everything else leaves storage as struck.
	wantV, wantC := struckV, struckC
	if commit && want.corrected > 0 && !want.failed {
		restored := newCELayout(s, seed, stride)
		for _, f := range flips {
			if s == CRC32C && f.bit >= 88 && f.entry >= 4 {
				restored.strike([]ceFlip{f})
			}
		}
		wantV, wantC = restored.snapshot()
	}
	if v, cc := l.snapshot(); !sameStorage(v, cc, wantV, wantC) {
		t.Fatalf("%s: storage after verify is neither repaired nor untouched as the mode demands", name)
	}
	if commit && !want.failed && !silent {
		cols, vals, stageErr = l.el.DecodeLocal(ceRunID, ceBase, ceRunLen, stride)
		checkStage("after committed repair")
	}
	return got
}

// layoutIndependent reports whether the struck codewords are the same
// whatever the stride. Only SECDED128 can disagree: its pairs are
// storage-consecutive, so two flips in neighbouring run entries share a
// codeword at stride 1 and not at stride 4 — by design, the pair
// geometry belongs to storage, not to the run.
func layoutIndependent(s Scheme, flips []ceFlip) bool {
	return s != SECDED128 || len(flips) < 2 || flips[0].entry == flips[1].entry
}

func runCEBothLayouts(t *testing.T, s Scheme, seed int64, flips []ceFlip, commit bool) {
	t.Helper()
	contiguous := runCECase(t, s, seed, 1, flips, commit)
	strided := runCECase(t, s, seed, 4, flips, commit)
	if layoutIndependent(s, flips) && contiguous != strided {
		t.Fatalf("%v commit=%v flips=%v: stride 1 %+v, stride 4 %+v", s, commit, flips, contiguous, strided)
	}
}

// TestColElemsSingleAndDoubleFlips walks every single-bit flip of a run
// and a seeded sample of double flips — value, column and slot bits —
// through every scheme, both commit modes and both layouts.
func TestColElemsSingleAndDoubleFlips(t *testing.T) {
	for _, s := range ProtectingSchemes {
		rng := rand.New(rand.NewSource(int64(s) + 15))
		var cases [][]ceFlip
		cases = append(cases, nil) // the clean run
		for j := 0; j < ceRunLen; j++ {
			for b := 0; b < 96; b++ {
				cases = append(cases, []ceFlip{{j, b}})
			}
		}
		for i := 0; i < 300; i++ {
			a := ceFlip{rng.Intn(ceRunLen), rng.Intn(96)}
			b := ceFlip{rng.Intn(ceRunLen), rng.Intn(96)}
			if i%2 == 0 {
				b.entry = a.entry
			}
			if a != b {
				cases = append(cases, []ceFlip{a, b})
			}
		}
		for _, flips := range cases {
			for _, commit := range []bool{true, false} {
				runCEBothLayouts(t, s, int64(s)*1000+int64(len(flips)), flips, commit)
			}
		}
	}
}

// TestColElemsCheckRunBoundsGuard: a run wider than the scratch, or one
// whose stride carries it past the end of storage, is what corrupted run
// delimiters (CSR row pointers) produce. It must surface as a counted
// FaultError naming the run, never as an out-of-range access.
func TestColElemsCheckRunBoundsGuard(t *testing.T) {
	for _, stride := range []int{1, 4} {
		l := newCELayout(CRC32C, 9, stride)
		for name, run := range map[string][2]int{
			"wider than scratch":  {ceBase, ceRunLen + 1},
			"past end of storage": {ceBase + stride, ceRunLen},
			"negative width":      {ceBase, -1},
		} {
			var c Counters
			_, err := l.el.CheckRun(ceRunID, run[0], run[1], stride, l.buf, true, &c)
			var fe *FaultError
			if !errors.As(err, &fe) || fe.Index != ceRunID || c.Detected() != 1 {
				t.Fatalf("stride %d, %s: err %v, counters %+v", stride, name, err, c.Snapshot())
			}
		}
	}
}

// FuzzColElems drives the same invariants from arbitrary payloads and
// flip positions.
func FuzzColElems(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(0), uint8(0), uint8(0), uint8(0), false, true)
	f.Add(uint8(1), int64(2), uint8(3), uint8(40), uint8(3), uint8(95), true, false)
	f.Add(uint8(2), int64(3), uint8(0), uint8(91), uint8(1), uint8(12), true, true)
	f.Add(uint8(3), int64(4), uint8(5), uint8(90), uint8(0), uint8(88), true, false)
	f.Fuzz(func(t *testing.T, scheme uint8, seed int64, e0, b0, e1, b1 uint8, double, commit bool) {
		s := ProtectingSchemes[int(scheme)%len(ProtectingSchemes)]
		flips := []ceFlip{{int(e0) % ceRunLen, int(b0) % 96}}
		if second := (ceFlip{int(e1) % ceRunLen, int(b1) % 96}); double && second != flips[0] {
			flips = append(flips, second)
		}
		runCEBothLayouts(t, s, seed, flips, commit)
	})
}
