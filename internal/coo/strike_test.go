package coo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"abft/internal/core"
	"abft/internal/csr"
)

// cooFlip addresses one bit of the triplet stream: bit b of element k's
// 128-bit record — value bits 0..63, row index 64..95, column index
// 96..127, redundancy nibbles and zero padding included.
type cooFlip struct{ k, bit int }

func strike(m *Matrix, f cooFlip) {
	switch b := f.bit; {
	case b < 64:
		m.vals[f.k] = flipFloat(m.vals[f.k], uint(b))
	case b < 96:
		m.rowIdx[f.k] ^= 1 << uint(b-64)
	default:
		m.colIdx[f.k] ^= 1 << uint(b-96)
	}
}

// maskedBit reports whether bit b of an element record is redundancy or
// padding only, masked off before any index is used.
func maskedBit(s core.Scheme, b int) bool {
	return b >= 64 && idxMask(s)&(1<<uint((b-64)%32)) == 0
}

// cooOutcome is what a verified product observably did.
type cooOutcome struct {
	corrected, detected uint64
	failed              bool
}

// cooExpect derives the outcome the schemes promise for flips that land
// in at most one uncorrectable codeword: per codeword, SECDED corrects
// one flip and detects two, CRC32C corrects up to two, SED detects an
// odd count. silent marks SED's blind spot (an even count in one
// element): nothing is seen and the payload is wrong, so it is not
// compared. fault is the codeword a failed product reports.
func cooExpect(s core.Scheme, flips []cooFlip) (want cooOutcome, silent bool, fault int) {
	hits := map[int]int{}
	for _, f := range flips {
		hits[f.k/groupSize(s)]++
	}
	fault = -1
	for cw, n := range hits {
		switch {
		case s == core.SED && n%2 == 0:
			silent = true
			continue
		case s == core.CRC32C || n == 1 && s != core.SED:
			want.corrected++
			continue
		}
		want.detected++
		if fault < 0 || cw < fault {
			fault = cw
		}
	}
	want.failed = want.detected > 0
	return want, silent, fault
}

// stageChunk is the entry range a product's chunk covers and, when dirty,
// stages around element k: its CRC32C group, or its verifyChunk-aligned
// chunk (entry ranges start at codeword multiples of verifyChunk on one
// worker).
func stageChunk(m *Matrix, k int) (lo, hi int) {
	step := verifyChunk
	if m.Scheme() == core.CRC32C {
		step = crcGroup
	}
	lo = k / step * step
	return lo, min(lo+step, len(m.vals))
}

// cooProduct multiplies m by the k = len(xs) columns xs — Apply at width
// 1, ApplyBatch above — and returns each output column's raw words.
func cooProduct(t *testing.T, m *Matrix, xs [][]float64, workers int) ([][]uint64, error) {
	t.Helper()
	dst := core.NewMultiVector(m.Rows(), len(xs), core.None)
	var err error
	if len(xs) == 1 {
		err = m.Apply(dst.Col(0), core.VectorFromSlice(xs[0], core.None), workers)
	} else {
		err = m.ApplyBatch(dst, wrapBatch(t, xs), workers)
	}
	out := make([][]uint64, len(xs))
	for j := range out {
		out[j] = append([]uint64(nil), dst.Col(j).Raw()...)
	}
	return out, err
}

// strikeCases lists every single-bit flip of the codeword of g entries
// at base, then seeded double flips: 120 inside that codeword and, for
// the correcting schemes, 60 with the second flip in another codeword.
func strikeCases(s core.Scheme, base, g, entries int, rng *rand.Rand) [][]cooFlip {
	var cases [][]cooFlip
	for b := 0; b < 128*g; b++ {
		cases = append(cases, []cooFlip{{base + b/128, b % 128}})
	}
	in := func() cooFlip { b := rng.Intn(128 * g); return cooFlip{base + b/128, b % 128} }
	for n := 0; n < 120; {
		if a, b := in(), in(); a != b {
			cases = append(cases, []cooFlip{a, b})
			n++
		}
	}
	for n := 0; n < 60 && s != core.SED; {
		if b := (cooFlip{rng.Intn(entries), rng.Intn(128)}); b.k/g != base/g {
			cases = append(cases, []cooFlip{in(), b})
			n++
		}
	}
	return cases
}

// TestCOOStrikesAllModes strikes every bit of one element codeword —
// value, row and column bits, redundancy nibbles and padding — and
// seeded double flips, under every protecting scheme, and applies the
// matrix as the exclusive owner, as a shared reader and unverified, with
// 1 and 3 workers at width 1 and 3. A verified product equals the clean
// one bit for bit whenever the strike is correctable, counts the checks
// a clean sweep counts and the corrections and detections the scheme
// promises, repairs storage only as the exclusive owner, and reports an
// uncorrectable strike as the storage codeword it hit. The dirty chunk's
// stage, taken directly, holds the clean storage or names that same
// codeword. An unverified product counts nothing, writes nothing and
// ignores the redundancy bits.
func TestCOOStrikesAllModes(t *testing.T) {
	plain := buildSrc(t)
	xs, _ := batchColumns(t, plain, 3)
	for _, s := range core.ProtectingSchemes {
		m, err := NewMatrix(plain, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		var c core.Counters
		m.SetCounters(&c)
		cleanVals := append([]float64(nil), m.vals...)
		cleanRows := append([]uint32(nil), m.rowIdx...)
		cleanCols := append([]uint32(nil), m.colIdx...)
		restore := func() {
			copy(m.vals, cleanVals)
			copy(m.rowIdx, cleanRows)
			copy(m.colIdx, cleanCols)
		}
		// same reports whether entries [lo,hi) hold the clean triplets.
		same := func(el triplets, off, lo, hi int) bool {
			for k := lo; k < hi; k++ {
				if math.Float64bits(el.vals[k-off]) != math.Float64bits(cleanVals[k]) ||
					el.rows[k-off] != cleanRows[k] || el.cols[k-off] != cleanCols[k] {
					return false
				}
			}
			return true
		}
		g := groupSize(s)
		base := len(m.vals) / 2 / g * g
		cases := strikeCases(s, base, g, len(m.vals), rand.New(rand.NewSource(int64(s)+48)))

		for _, mode := range []core.ReadMode{core.ModeExclusive, core.ModeShared, core.ModeUnverified} {
			for _, workers := range []int{1, 3} {
				for _, width := range []int{1, 3} {
					if mode == core.ModeUnverified && width > 1 {
						continue // ApplyBatch is always verified; width 1 covers this rung
					}
					m.SetReadMode(mode)
					restore()
					c = core.Counters{}
					want, err := cooProduct(t, m, xs[:width], workers)
					if err != nil {
						t.Fatal(err)
					}
					cleanChecks := c.Checks()
					for _, flips := range cases {
						restore()
						for _, f := range flips {
							strike(m, f)
						}
						struck := triplets{s, m.backend, append([]uint32(nil), m.rowIdx...),
							append([]uint32(nil), m.colIdx...), append([]float64(nil), m.vals...)}
						c = core.Counters{}
						got, err := cooProduct(t, m, xs[:width], workers)
						name := fmt.Sprintf("%v %v workers=%d width=%d flips %v", s, mode, workers, width, flips)
						untouched := func() bool {
							for k := range m.vals {
								if math.Float64bits(m.vals[k]) != math.Float64bits(struck.vals[k]) ||
									m.rowIdx[k] != struck.rows[k] || m.colIdx[k] != struck.cols[k] {
									return false
								}
							}
							return true
						}
						sameProduct := func() bool {
							for j := range got {
								for i := range got[j] {
									if got[j][i] != want[j][i] {
										return false
									}
								}
							}
							return true
						}

						if mode == core.ModeUnverified {
							var be *core.BoundsError
							if err != nil && !errors.As(err, &be) {
								t.Fatalf("%s: unverified product failed with %v", name, err)
							}
							if snap := c.Snapshot(); snap.Checks+snap.Corrected+snap.Detected != 0 || !untouched() {
								t.Fatalf("%s: unverified product counted %+v or wrote storage", name, snap)
							}
							masked := true
							for _, f := range flips {
								masked = masked && maskedBit(s, f.bit)
							}
							if masked && (err != nil || !sameProduct()) {
								t.Fatalf("%s: a strike on redundancy bits only reached the unverified product (%v)", name, err)
							}
							continue
						}

						outcome, silent, fault := cooExpect(s, flips)
						if silent {
							var be *core.BoundsError
							if err != nil && !errors.As(err, &be) || c.Corrected()+c.Detected() != 0 || !untouched() {
								t.Fatalf("%s: SED's even strike: err %v, counters %+v", name, err, c.Snapshot())
							}
							continue
						}
						if got := (cooOutcome{c.Corrected(), c.Detected(), err != nil}); got != outcome {
							t.Fatalf("%s: outcome %+v (err %v), want %+v", name, got, err, outcome)
						}
						if outcome.failed {
							var fe *core.FaultError
							if !errors.As(err, &fe) || fe.Structure != core.StructElements || fe.Scheme != s || fe.Index != fault {
								t.Fatalf("%s: err %v, want the FaultError of codeword %d", name, err, fault)
							}
							if !untouched() {
								t.Fatalf("%s: an uncorrectable strike wrote storage", name)
							}
						} else {
							if c.Checks() != cleanChecks || !sameProduct() {
								t.Fatalf("%s: checks %d (clean %d), product equal to the clean one %v", name, c.Checks(), cleanChecks, sameProduct())
							}
							if repaired := same(m.elems(), 0, 0, len(m.vals)); repaired != mode.Commits() || !repaired && !untouched() {
								t.Fatalf("%s: storage repaired %v, want %v", name, repaired, mode.Commits())
							}
						}

						// The stage of the chunk around the struck codeword,
						// from struck storage.
						lo, hi := stageChunk(m, base)
						var img [16 * crcGroup]byte
						st, err := struck.stage(lo, hi, &img)
						var fe *core.FaultError
						switch {
						case outcome.failed && (!errors.As(err, &fe) || fe.Index != fault):
							t.Fatalf("%s: stage [%d,%d) err %v, want the FaultError of codeword %d", name, lo, hi, err, fault)
						case !outcome.failed && (err != nil || !same(st, lo, lo, hi)):
							t.Fatalf("%s: stage [%d,%d) err %v, or not the clean triplets", name, lo, hi, err)
						}
					}
				}
			}
		}
	}
}

// randomCOO returns a seeded square matrix of 8 to 23 rows with a full
// diagonal and up to four more entries per row at random columns.
func randomCOO(t *testing.T, rng *rand.Rand) *csr.Matrix {
	t.Helper()
	n := 8 + rng.Intn(16)
	var entries []csr.Entry
	for r := 0; r < n; r++ {
		entries = append(entries, csr.Entry{Row: r, Col: r, Val: 4 + rng.Float64()})
		for _, c := range rng.Perm(n)[:rng.Intn(5)] {
			if c != r {
				entries = append(entries, csr.Entry{Row: r, Col: c, Val: rng.NormFloat64()})
			}
		}
	}
	m, err := csr.New(n, n, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// FuzzCOOStage strikes one or two bits inside one element codeword of a
// seeded random matrix and applies it in shared mode, then, from the
// same struck storage, in exclusive mode: a correctable strike gives
// both the unprotected reference bit for bit, an uncorrectable one the
// same FaultError index in both, and the shared product never writes
// storage.
func FuzzCOOStage(f *testing.F) {
	f.Add(uint8(1), int64(1), uint16(0), uint16(40), uint16(0), false, false)
	f.Add(uint8(2), int64(2), uint16(7), uint16(70), uint16(99), true, true)
	f.Add(uint8(3), int64(3), uint16(3), uint16(130), uint16(250), true, false)
	f.Add(uint8(4), int64(4), uint16(5), uint16(93), uint16(900), true, true)
	f.Add(uint8(0), int64(5), uint16(9), uint16(95), uint16(3), true, false)
	f.Fuzz(func(t *testing.T, scheme uint8, seed int64, cw, b0, b1 uint16, double, parallel bool) {
		s := core.ProtectingSchemes[int(scheme)%len(core.ProtectingSchemes)]
		rng := rand.New(rand.NewSource(seed))
		plain := randomCOO(t, rng)
		xs := make([]float64, plain.Cols32())
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		ref := make([]float64, plain.Rows())
		plain.SpMV(ref, xs)
		workers := 1
		if parallel {
			workers = 3
		}

		m, err := NewMatrix(plain, Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		g := groupSize(s)
		base := int(cw) % (len(m.vals) / g) * g
		at := func(b uint16) cooFlip { i := int(b) % (128 * g); return cooFlip{base + i/128, i % 128} }
		flips := []cooFlip{at(b0)}
		if second := at(b1); double && second != flips[0] {
			flips = append(flips, second)
		}
		for _, f := range flips {
			strike(m, f)
		}
		struckVals := append([]float64(nil), m.vals...)
		struckRows := append([]uint32(nil), m.rowIdx...)
		struckCols := append([]uint32(nil), m.colIdx...)
		outcome, silent, fault := cooExpect(s, flips)

		var errs [2]error
		var outs [2][]uint64
		for i, mode := range []core.ReadMode{core.ModeShared, core.ModeExclusive} {
			m.SetReadMode(mode)
			var out [][]uint64
			out, errs[i] = cooProduct(t, m, [][]float64{xs}, workers)
			outs[i] = out[0]
			if mode != core.ModeShared {
				continue
			}
			for k := range m.vals {
				if math.Float64bits(m.vals[k]) != math.Float64bits(struckVals[k]) || m.rowIdx[k] != struckRows[k] || m.colIdx[k] != struckCols[k] {
					t.Fatalf("%v flips %v: the shared product wrote element %d", s, flips, k)
				}
			}
		}
		switch {
		case silent:
		case outcome.failed:
			for i, err := range errs {
				var fe *core.FaultError
				if !errors.As(err, &fe) || fe.Index != fault {
					t.Fatalf("%v flips %v: mode %d err %v, want the FaultError of codeword %d", s, flips, i, err, fault)
				}
			}
		default:
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%v flips %v: mode %d: %v", s, flips, i, err)
				}
				for r, w := range outs[i] {
					if r < len(ref) && w != math.Float64bits(ref[r]) {
						t.Fatalf("%v flips %v: mode %d row %d = %x, reference %x", s, flips, i, r, w, math.Float64bits(ref[r]))
					}
				}
			}
		}
	})
}
