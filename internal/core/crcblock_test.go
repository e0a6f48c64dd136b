package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"abft/internal/csr"
	"abft/internal/ecc"
)

// The CRC32C vector block and row-pointer group are checksummed where
// they lie (ecc.BlockChecksum / ecc.GroupChecksum). These tests pin what
// that bought — no allocation per codeword — and what it must not have
// changed: every outcome of the serialising routines it replaced, which
// are kept below as the oracles.

var crcBackends = []ecc.Backend{ecc.Hardware, ecc.Software}

// ---------------------------------------------------------------------------
// Oracles: the serialising codecs, the definition the in-place checks
// must reproduce. The vector block's message is its eight words
// serialised little-endian with the four checksum slots (the low bytes
// of words 0-3) cleared; the low bytes of words 4-7 are message bytes.

// oracleWriteCRCBlock is the serialising CRC32C arm of Vector.WriteBlock.
func oracleWriteCRCBlock(w []uint64, src *[BlockLen]float64, backend ecc.Backend) {
	var buf [8 * BlockLen]byte
	for i, x := range src {
		bits := math.Float64bits(x) &^ 0xFF
		w[i] = bits
		binary.LittleEndian.PutUint64(buf[8*i:], bits)
	}
	crc := ecc.Checksum(buf[:], backend)
	for i := 0; i < 4; i++ {
		w[i] |= uint64(crc>>(8*uint(i))) & 0xFF
	}
}

// oracleReadCRCBlock is the serialising CRC32C arm of Vector.readBlock
// over the storage words w, counting into c.
func oracleReadCRCBlock(w []uint64, dst *[BlockLen]float64, commit bool, backend ecc.Backend, c *Counters) error {
	var lw [BlockLen]uint64
	copy(lw[:], w)
	var buf [8 * BlockLen]byte
	var stored uint32
	for i, x := range lw {
		if i < 4 {
			stored |= uint32(x&0xFF) << (8 * uint(i))
			x &^= 0xFF
		}
		binary.LittleEndian.PutUint64(buf[8*i:], x)
	}
	crc := ecc.Checksum(buf[:], backend)
	if crc != stored {
		flips, ok := ecc.CorrectCodeword(buf[:], stored, crc)
		for _, f := range flips {
			if f.InCRC {
				// Bit k of the checksum is bit k%8 of word k/8's low byte.
				lw[f.Bit/8] ^= 1 << uint(f.Bit%8)
				continue
			}
			if f.Bit/64 < 4 && f.Bit%64 < 8 {
				ok = false // a message flip cannot land in a checksum slot
			}
			lw[f.Bit/64] ^= 1 << uint(f.Bit%64)
		}
		if !ok {
			c.AddDetected(1)
			return &FaultError{Structure: StructVector, Scheme: CRC32C, Detail: "crc32c mismatch beyond correction depth"}
		}
		c.AddCorrected(1)
		if commit {
			copy(w, lw[:])
		}
	}
	for i := range dst {
		dst[i] = math.Float64frombits(lw[i] &^ 0xFF)
	}
	return nil
}

// oracleDecodeCRCRowGroup is the serialising CRC32C arm of Matrix.decodeRowGroup
// over the eight storage entries e, counting into c.
func oracleDecodeCRCRowGroup(e []uint32, dst *[8]uint32, commit bool, backend ecc.Backend, c *Counters) (corrected bool, err error) {
	var buf [32]byte
	var stored uint32
	for i, x := range e {
		binary.LittleEndian.PutUint32(buf[4*i:], x&rowPtrMask)
		stored |= (x >> 28) << (4 * uint(i))
	}
	if crc := ecc.Checksum(buf[:], backend); crc != stored {
		flips, ok := ecc.CorrectCodeword(buf[:], stored, crc)
		if !ok {
			c.AddDetected(1)
			return false, &FaultError{Structure: StructRowPtr, Scheme: CRC32C}
		}
		for _, f := range flips {
			if f.InCRC {
				if commit {
					e[f.Bit/4] ^= 1 << uint(28+f.Bit%4)
				}
				continue
			}
			if f.Bit%32 >= 28 {
				c.AddDetected(1)
				return false, &FaultError{Structure: StructRowPtr, Scheme: CRC32C}
			}
			buf[f.Bit/8] ^= 1 << uint(f.Bit%8)
			if commit {
				e[f.Bit/32] ^= 1 << uint(f.Bit%32)
			}
		}
		corrected = true
		c.AddCorrected(1)
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(buf[4*i:])
	}
	return corrected, nil
}

// ---------------------------------------------------------------------------
// Conformance against the oracles

func TestCRCBlockEncodeMatchesSerialisingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, 1, -1}
	for _, backend := range crcBackends {
		v := NewVector(BlockLen, CRC32C)
		v.SetCRCBackend(backend)
		for trial := 0; trial < 500; trial++ {
			var src [BlockLen]float64
			for i := range src {
				if rng.Intn(4) == 0 {
					src[i] = special[rng.Intn(len(special))]
				} else {
					src[i] = math.Float64frombits(rng.Uint64())
				}
			}
			var want [BlockLen]uint64
			oracleWriteCRCBlock(want[:], &src, backend)
			v.WriteBlock(0, &src)
			if got := *(*[BlockLen]uint64)(v.Raw()); got != want {
				t.Fatalf("%v: WriteBlock(%x) stored %x, oracle %x", backend, src, got, want)
			}
		}
	}
}

// crcFlipSets returns every single flip of a codeword of the given
// stored bits — message and slot bits alike — and a seeded sample of
// double flips, the first of every other pair drawn from within (a nil
// within draws every pair anywhere).
func crcFlipSets(bits int, within []int) [][]int {
	var sets [][]int
	for bit := 0; bit < bits; bit++ {
		sets = append(sets, []int{bit})
	}
	rng := rand.New(rand.NewSource(32))
	for len(sets) < bits+600 {
		a, b := rng.Intn(bits), rng.Intn(bits)
		if within != nil && len(sets)%2 == 0 {
			a = within[rng.Intn(len(within))]
		}
		if a != b {
			sets = append(sets, []int{a, b})
		}
	}
	return sets
}

// lowByteBits lists the bits of the low bytes of a vector block's eight
// words: the checksum slots of words 0-3 and the zero-encoded message
// bytes of words 4-7.
func lowByteBits() []int {
	var bits []int
	for w := 0; w < BlockLen; w++ {
		for b := 0; b < 8; b++ {
			bits = append(bits, 64*w+b)
		}
	}
	return bits
}

// TestCRCVectorBlockConformsToSerialisingOracle strikes one CRC32C block
// with every single flip and a sample of double flips — half of them
// with one flip in a low byte — and demands the serialising routine's
// outcome exactly: result class, delivered values, counter deltas, and
// the commit discipline (exclusive reads repair storage, shared reads
// leave it as struck). Every single flip, a low-byte one of words 4-7
// included, is corrected.
func TestCRCVectorBlockConformsToSerialisingOracle(t *testing.T) {
	clean := VectorFromSlice([]float64{1.5, -2.25e-7, 3.125e11, -9, 0.5, -7e-300, 6.02e23, 11}, CRC32C)
	for _, backend := range crcBackends {
		for _, commit := range []bool{true, false} {
			for _, flips := range crcFlipSets(64*BlockLen, lowByteBits()) {
				v := clean.Clone()
				v.SetCRCBackend(backend)
				var got, want Counters
				v.SetCounters(&got)
				for _, bit := range flips {
					v.Raw()[bit/64] ^= 1 << uint(bit%64)
				}
				struck := *(*[BlockLen]uint64)(v.Raw())
				oracleWords := struck

				var gotDst, wantDst [BlockLen]float64
				wantErr := oracleReadCRCBlock(oracleWords[:], &wantDst, commit, backend, &want)
				want.AddChecks(1) // Read counts the block's one check itself
				mode := ModeExclusive
				if !commit {
					mode = ModeShared
				}
				gotErr := v.Read(0, 1, gotDst[:], mode)

				name := fmt.Sprintf("%v commit=%v flips=%v", backend, commit, flips)
				var fe *FaultError
				if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && !errors.As(gotErr, &fe)) {
					t.Fatalf("%s: error %v, oracle %v", name, gotErr, wantErr)
				}
				if len(flips) == 1 && (gotErr != nil || got.Corrected() != 1) {
					t.Fatalf("%s: single flip not corrected: %v", name, gotErr)
				}
				if got.Snapshot() != want.Snapshot() {
					t.Fatalf("%s: counters %+v, oracle %+v", name, got.Snapshot(), want.Snapshot())
				}
				if gotErr == nil {
					for i := range gotDst {
						if math.Float64bits(gotDst[i]) != math.Float64bits(wantDst[i]) {
							t.Fatalf("%s: dst[%d] = %x, oracle %x", name, i,
								math.Float64bits(gotDst[i]), math.Float64bits(wantDst[i]))
						}
					}
				}
				stored := *(*[BlockLen]uint64)(v.Raw())
				if stored != oracleWords {
					t.Fatalf("%s: storage %x, oracle %x", name, stored, oracleWords)
				}
				if !commit && stored != struck {
					t.Fatalf("%s: shared read wrote storage: %x -> %x", name, struck, stored)
				}
				if commit && gotErr == nil && stored != *(*[BlockLen]uint64)(clean.Raw()) && len(flips) == 1 {
					t.Fatalf("%s: exclusive read left a single flip in storage: %x", name, stored)
				}
			}
		}
	}
}

// TestCRCRowGroupConformsToSerialisingOracle is the same sweep over one
// row-pointer group: all 256 single flips and sampled double flips.
func TestCRCRowGroupConformsToSerialisingOracle(t *testing.T) {
	plain := csr.Laplacian2D(6, 6)
	const g = 1 // entries 8..15: no padding involved
	for _, backend := range crcBackends {
		m, err := NewMatrix(plain, MatrixOptions{ElemScheme: SECDED64, RowPtrScheme: CRC32C, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		e := m.RawRowPtr()[8*g : 8*g+8]
		clean := *(*[8]uint32)(e)
		for _, commit := range []bool{true, false} {
			for _, flips := range crcFlipSets(256, nil) {
				var got, want Counters
				m.SetCounters(&got)
				copy(e, clean[:])
				for _, bit := range flips {
					e[bit/32] ^= 1 << uint(bit%32)
				}
				struck := *(*[8]uint32)(e)
				oracleEntries := struck

				var gotDst, wantDst [8]uint32
				wantCorr, wantErr := oracleDecodeCRCRowGroup(oracleEntries[:], &wantDst, commit, backend, &want)
				gotCorr, gotErr := m.decodeRowGroup(g, commit, &gotDst)

				name := fmt.Sprintf("%v commit=%v flips=%v", backend, commit, flips)
				if (gotErr == nil) != (wantErr == nil) || gotCorr != wantCorr {
					t.Fatalf("%s: (%v, %v), oracle (%v, %v)", name, gotCorr, gotErr, wantCorr, wantErr)
				}
				if got.Snapshot() != want.Snapshot() {
					t.Fatalf("%s: counters %+v, oracle %+v", name, got.Snapshot(), want.Snapshot())
				}
				if gotErr == nil && gotDst != wantDst {
					t.Fatalf("%s: dst %x, oracle %x", name, gotDst, wantDst)
				}
				if stored := *(*[8]uint32)(e); stored != oracleEntries {
					t.Fatalf("%s: storage %x, oracle %x", name, stored, oracleEntries)
				}
			}
		}
	}
}

// TestCRCRowGroupUncorrectableWritesNothing strikes a row-pointer group
// with a data flip at image bit p0 and a stored checksum that also
// explains a message flip on slot bit p1 > p0. No stored bit can have
// flipped there, so the explanation is unsound: the committing decode
// must report a fault and leave storage exactly as struck, p0's flip
// included.
func TestCRCRowGroupUncorrectableWritesNothing(t *testing.T) {
	plain := csr.Laplacian2D(6, 6)
	const g = 1
	syn := ecc.BitSyndromes(32)
	m, err := NewMatrix(plain, MatrixOptions{ElemScheme: SECDED64, RowPtrScheme: CRC32C})
	if err != nil {
		t.Fatal(err)
	}
	e := m.RawRowPtr()[8*g : 8*g+8]
	clean := *(*[8]uint32)(e)
	for k := 0; k < 32; k++ {
		p1 := rowSlot(k)
		for _, p0 := range []int{3, p1 - 28 - k%4 + 27} { // entry 0, the top data bit below the slots
			copy(e, clean[:])
			e[p0/32] ^= 1 << uint(p0%32)
			for j := 0; j < 32; j++ {
				if syn[p1]>>uint(j)&1 != 0 {
					e[j/4] ^= 1 << uint(28+j%4)
				}
			}
			struck := *(*[8]uint32)(e)
			var dst [8]uint32
			var fe *FaultError
			if _, err := m.decodeRowGroup(g, true, &dst); !errors.As(err, &fe) {
				t.Fatalf("slot %d, p0 %d: decode = %v, want a FaultError", k, p0, err)
			}
			if got := *(*[8]uint32)(e); got != struck {
				t.Fatalf("slot %d, p0 %d: an uncorrectable verdict wrote storage: %x -> %x", k, p0, struck, got)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Allocation ceilings

// TestVectorBlockOpsZeroAllocs pins the block primitives at zero heap
// allocations for every scheme and both CRC backends: a per-block message
// buffer escaping into hash/crc32 once cost 700k allocations per solve.
func TestVectorBlockOpsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	data := randSlice(rng, 16*BlockLen)
	for _, s := range Schemes {
		for _, backend := range crcBackends {
			v := VectorFromSlice(data, s)
			v.SetCRCBackend(backend)
			var c Counters
			v.SetCounters(&c)
			var blk [BlockLen]float64
			batch := make([]float64, 8*BlockLen)
			var err error
			ops := map[string]func(){
				"Read exclusive": func() { err = v.Read(3, 4, blk[:], ModeExclusive) },
				"Read shared":    func() { err = v.Read(3, 4, blk[:], ModeShared) },
				"WriteBlock":     func() { v.WriteBlock(5, &blk) },
				"Read of a run":  func() { err = v.Read(2, 10, batch, ModeExclusive) },
			}
			for name, op := range ops {
				if n := testing.AllocsPerRun(50, op); n != 0 || err != nil {
					t.Errorf("%v/%v: %s allocates %v times per call (err %v), want 0", s, backend, name, n, err)
				}
			}
		}
	}
}

// TestSpMVCRCRowPtrAllocs bounds a whole CSR sweep with CRC32C row
// pointers (once one allocation per 8-row group) at the handful the
// sweep itself makes whatever the scheme: the range list, the width-1
// operand slices, the worker closure, the k-wide sums and output blocks,
// and the CRC32C element-row scratch.
func TestSpMVCRCRowPtrAllocs(t *testing.T) {
	plain := csr.Laplacian2D(32, 32) // 1,024 rows, 128 row-pointer groups
	for _, elems := range []Scheme{SECDED64, CRC32C} {
		for _, backend := range crcBackends {
			m, err := NewMatrix(plain, MatrixOptions{ElemScheme: elems, RowPtrScheme: CRC32C, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			x := VectorFromSlice(randSlice(rand.New(rand.NewSource(34)), m.Cols()), CRC32C)
			y := NewVector(m.Rows(), CRC32C)
			x.SetCRCBackend(backend)
			y.SetCRCBackend(backend)
			n := testing.AllocsPerRun(10, func() {
				if err := SpMV(y, m, x, 1); err != nil {
					t.Fatal(err)
				}
			})
			if n > 8 {
				t.Errorf("elements %v, %v: SpMV allocates %v times per sweep, want <= 8", elems, backend, n)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Satellites: scrub without shared-state writes, replicated zero encode

// TestVectorCheckAllDoesNotRaceWithSharedReaders scrubs an untracked vector while other
// goroutines sweep it through the shared path. CheckAll used to attach a
// scratch Counters to the vector and detach it on return — a write that
// every concurrent reader's counter access raced with. Run under -race.
func TestVectorCheckAllDoesNotRaceWithSharedReaders(t *testing.T) {
	for _, s := range ProtectingSchemes {
		v := VectorFromSlice(randSlice(rand.New(rand.NewSource(35)), 256), s)
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dst := make([]float64, v.Blocks()*BlockLen)
				for pass := 0; pass < 50; pass++ {
					if err := v.Read(0, v.Blocks(), dst, ModeShared); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for pass := 0; pass < 50; pass++ {
			if n, err := v.CheckAll(); n != 0 || err != nil {
				t.Errorf("%v: CheckAll on a clean vector = (%d, %v)", s, n, err)
			}
		}
		wg.Wait()
		if v.Counters() != nil {
			t.Errorf("%v: CheckAll left counters attached", s)
		}
	}
}

// TestVectorCheckAllCountsLocally checks the tally of an untracked vector
// and that a tracked one still sees checks, corrections and detections.
func TestVectorCheckAllCountsLocally(t *testing.T) {
	v := VectorFromSlice(make([]float64, 32), CRC32C)
	v.Raw()[2] ^= 1 << 40
	v.Raw()[17] ^= 1 << 3
	if n, err := v.CheckAll(); n != 2 || err != nil {
		t.Fatalf("untracked CheckAll = (%d, %v), want (2, nil)", n, err)
	}
	var c Counters
	v.SetCounters(&c)
	v.Raw()[9] ^= 1 << 20
	v.Raw()[28] ^= 0x7 << 30 // three flips: beyond the correction depth
	n, err := v.CheckAll()
	var fe *FaultError
	if n != 1 || !errors.As(err, &fe) {
		t.Fatalf("tracked CheckAll = (%d, %v), want one correction and a FaultError", n, err)
	}
	want := CounterSnapshot{Checks: uint64(v.Blocks()), Corrected: 1, Detected: 1}
	if got := c.Snapshot(); got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
}

func TestNewVectorReplicatesEncodedZeroBlock(t *testing.T) {
	for _, s := range Schemes {
		for _, n := range []int{0, 1, 4, 37} {
			v := NewVector(n, s)
			var zeros [BlockLen]float64
			want := NewVector(BlockLen, s)
			want.WriteBlock(0, &zeros)
			if len(v.Raw())%BlockLen != 0 || len(v.Raw()) < n {
				t.Fatalf("%v n=%d: %d storage words", s, n, len(v.Raw()))
			}
			for i, w := range v.Raw() {
				if w != want.Raw()[i%BlockLen] {
					t.Fatalf("%v n=%d: word %d = %x, encoded zero block has %x", s, n, i, w, want.Raw()[i%BlockLen])
				}
			}
			if _, err := v.CheckAll(); err != nil {
				t.Fatalf("%v n=%d: fresh vector not clean: %v", s, n, err)
			}
		}
	}
}

// ---------------------------------------------------------------------------

// BenchmarkVectorBlockCRC32C times one verified read and one encode of a
// CRC32C block per backend. Run with -benchmem: both must report
// 0 allocs/op, so a per-block allocation that returns is visible in the
// log of every CI run.
func BenchmarkVectorBlockCRC32C(b *testing.B) {
	data := randSlice(rand.New(rand.NewSource(36)), 1<<10)
	for _, backend := range crcBackends {
		v := VectorFromSlice(data, CRC32C)
		v.SetCRCBackend(backend)
		nb := v.Blocks()
		var blk [BlockLen]float64
		b.Run(backend.String()+"/read", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(BlockLen * 8)
			for i := 0; i < b.N; i++ {
				if err := v.Read(i%nb, i%nb+1, blk[:], ModeExclusive); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(backend.String()+"/write", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(BlockLen * 8)
			for i := 0; i < b.N; i++ {
				v.WriteBlock(i%nb, &blk)
			}
		})
	}
}
