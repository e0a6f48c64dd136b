package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"abft/internal/ecc"
)

// BlockLen is the element granularity shared by all vector kernels: one
// 64-byte cache line of eight float64 words, a multiple of every scheme's
// codeword group size (the CRC32C codeword is the whole block). Vectors
// are padded to a multiple of BlockLen so kernels can stream whole blocks
// without tail special-casing; the padding is encoded zeros. Every layer
// that partitions a protected vector — shard bands, preconditioner bands,
// checkpoint copies, SELL windows — aligns to it, so no two owners ever
// share a codeword.
const BlockLen = 8

// Vector is a dense float64 vector whose redundancy is embedded in the
// least significant mantissa bits of its own elements (paper section VI-B).
// Reads return values with the reserved bits masked to zero, bounding the
// perturbation at 2^-(52-reserved) relative; writes mask before encoding.
//
// The natural unit of access is the codeword group (1, 2 or 8 elements
// depending on scheme). ReadBlock/WriteBlock move whole blocks and are
// what the kernels use; At/Set are the random-access paths, with Set
// paying the read-modify-write penalty the paper's buffered kernels
// avoid.
//
// A Vector is safe for concurrent readers; concurrent writers must not
// share a block.
type Vector struct {
	scheme   Scheme
	backend  ecc.Backend
	n        int      // logical length
	words    []uint64 // padded raw storage, len multiple of BlockLen
	counters *Counters
	// dot is the inner product the next product written into v is asked
	// for (DotRequest), nil almost always.
	dot *DotRequest
}

// NewVector returns a zero-filled protected vector of length n.
func NewVector(n int, s Scheme) *Vector {
	if n < 0 {
		panic("core: negative vector length")
	}
	pad := (n + BlockLen - 1) / BlockLen * BlockLen
	v := &Vector{scheme: s, n: n, words: make([]uint64, pad)}
	// Encode the zero contents so every codeword is initially clean: every
	// block is the same codeword, so encode the first and replicate it.
	if pad > 0 {
		var zeros [BlockLen]float64
		v.WriteBlock(0, &zeros)
		for b := BlockLen; b < pad; b += BlockLen {
			copy(v.words[b:b+BlockLen], v.words[:BlockLen])
		}
	}
	return v
}

// VectorFromSlice builds a protected vector holding a copy of data.
func VectorFromSlice(data []float64, s Scheme) *Vector {
	v := NewVector(len(data), s)
	v.CopyFrom(data)
	return v
}

// view makes v a view of the n elements of parent that start at block
// b0: v shares parent's words (blocks [b0, b0+⌈n/BlockLen⌉), which must
// lie inside parent), scheme, CRC backend and counters, so a write
// through v is a write to parent and both read the same codewords. v's previous
// header is overwritten; re-pointing a view allocates nothing.
func (v *Vector) view(parent *Vector, b0, n int) {
	lo, hi := b0*BlockLen, (b0*BlockLen+n+BlockLen-1)/BlockLen*BlockLen
	*v = Vector{
		scheme:   parent.scheme,
		backend:  parent.backend,
		n:        n,
		words:    parent.words[lo:hi:hi],
		counters: parent.counters,
	}
}

// Len returns the logical element count.
func (v *Vector) Len() int { return v.n }

// Scheme returns the protection scheme.
func (v *Vector) Scheme() Scheme { return v.scheme }

// Blocks returns the number of BlockLen-element blocks (including
// padding).
func (v *Vector) Blocks() int { return len(v.words) / BlockLen }

// SetCounters attaches a statistics accumulator (may be shared or nil).
func (v *Vector) SetCounters(c *Counters) { v.counters = c }

// Counters returns the attached statistics accumulator, or nil.
func (v *Vector) Counters() *Counters { return v.counters }

// SetCRCBackend selects the CRC32C implementation used by the CRC32C
// scheme (hardware-accelerated by default).
func (v *Vector) SetCRCBackend(b ecc.Backend) { v.backend = b }

// Raw exposes the stored words for fault injection and inspection. Bits
// flipped here model soft errors in main memory.
func (v *Vector) Raw() []uint64 { return v.words }

// Mask returns x with this scheme's reserved mantissa bits cleared; it is
// the transformation applied to every value on read and write.
func (v *Vector) Mask(x float64) float64 {
	return math.Float64frombits(math.Float64bits(x) & v.scheme.vecMask())
}

// checksPerBlock returns how many codeword integrity checks one verified
// block performs. Kernels batch this into the shared counters once per
// call instead of updating an atomic in the block loop.
func (v *Vector) checksPerBlock() uint64 {
	if v.scheme == None {
		return 0
	}
	return uint64(BlockLen / v.scheme.VecGroup())
}

// faultErr builds the uncorrectable-error value for codeword group g,
// counting it into c.
func (v *Vector) faultErr(c *Counters, g int, detail string) error {
	c.AddDetected(1)
	return &FaultError{Structure: StructVector, Scheme: v.scheme, Index: g, Detail: detail}
}

// WriteBlock encodes and stores block b from src. Reserved bits of the
// incoming values are discarded.
func (v *Vector) WriteBlock(b int, src *[BlockLen]float64) {
	base := b * BlockLen
	w := v.words[base : base+BlockLen : base+BlockLen]
	switch v.scheme {
	case None:
		for i, x := range src {
			w[i] = math.Float64bits(x)
		}
	case SED:
		for i, x := range src {
			bits := math.Float64bits(x) &^ 1
			w[i] = bits | ecc.Parity64(bits)
		}
	case SECDED64:
		codecVec64.EncodeBlock64((*[BlockLen]uint64)(w), src)
	case SECDED128:
		codecVec128.EncodeBlock128((*[BlockLen]uint64)(w), src, v.scheme.vecMask())
	case CRC32C:
		// Store the message, checksum it where it lies, fill the slots:
		// the checksum's four bytes go to the low bytes of words 0-3, and
		// words 4-7 keep theirs zero.
		for i, x := range src {
			w[i] = math.Float64bits(x) &^ 0xFF
		}
		crc, _ := ecc.BlockChecksum((*[BlockLen]uint64)(w), v.backend)
		w[0] |= uint64(byte(crc))
		w[1] |= uint64(byte(crc >> 8))
		w[2] |= uint64(byte(crc >> 16))
		w[3] |= uint64(byte(crc >> 24))
	}
}

// ReadBlock verifies block b, correcting single-bit errors in place when
// the scheme allows, and stores the masked values in dst. On an
// uncorrectable error dst is left in an unspecified state and a
// *FaultError is returned.
func (v *Vector) ReadBlock(b int, dst *[BlockLen]float64) error {
	return v.readBlock(b, dst, true)
}

// readBlock is ReadBlock with control over whether corrections are written
// back to storage. Parallel kernels read shared vectors with commit=false
// so that only the owning goroutine ever writes a block; the corrected
// values are still used for computation and the stored fault is repaired
// by the next serial check.
func (v *Vector) readBlock(b int, dst *[BlockLen]float64, commit bool) error {
	return v.readBlockCounting(b, dst, commit, v.counters)
}

// readBlockCounting is readBlock reporting corrections and detections to c
// instead of the attached counters (nil discards them).
func (v *Vector) readBlockCounting(b int, dst *[BlockLen]float64, commit bool, c *Counters) error {
	base := b * BlockLen
	w := v.words[base : base+BlockLen : base+BlockLen]
	switch v.scheme {
	case None:
		for i := range dst {
			dst[i] = math.Float64frombits(w[i])
		}
		return nil
	case SED:
		for i := range dst {
			if ecc.Parity64(w[i]) != 0 {
				return v.faultErr(c, base+i, "parity mismatch")
			}
			dst[i] = math.Float64frombits(w[i] &^ 1)
		}
		return nil
	case SECDED64:
		// One kernel call over the block where it lies; only a non-zero
		// accumulator pays for the per-codeword resolve.
		if codecVec64.AccBlock64((*[BlockLen]uint64)(w)) != 0 {
			return v.resolveSECDEDBlock(base, w, dst, commit, c)
		}
		for i := range dst {
			dst[i] = math.Float64frombits(w[i] &^ 0xFF)
		}
		return nil
	case SECDED128:
		if codecVec128.AccBlock128((*[BlockLen]uint64)(w)) != 0 {
			return v.resolveSECDEDBlock(base, w, dst, commit, c)
		}
		for i := range dst {
			dst[i] = math.Float64frombits(w[i] &^ 0x1F)
		}
		return nil
	case CRC32C:
		// Checksum the storage words as stored; only a mismatch pays for
		// a serialised copy.
		if crc, stored := ecc.BlockChecksum((*[BlockLen]uint64)(w), v.backend); crc != stored {
			return v.repairCRCBlock(b, w, dst, commit, c)
		}
		for i := range dst {
			dst[i] = math.Float64frombits(w[i] &^ 0xFF)
		}
		return nil
	default:
		return fmt.Errorf("core: unknown scheme %v", v.scheme)
	}
}

// resolveSECDEDBlock is the SECDED cold path of readBlock, entered when
// the block kernel's accumulator over the block at base (stored in w) was
// non-zero: the codewords are checked one at a time in storage order, so
// the first uncorrectable one is the one reported, single flips are
// repaired in the delivered values (and in storage when commit is true)
// and each is counted into c.
func (v *Vector) resolveSECDEDBlock(base int, w []uint64, dst *[BlockLen]float64, commit bool, c *Counters) error {
	if v.scheme == SECDED64 {
		for i := range dst {
			cw := ecc.Word4{w[i]}
			switch res, _ := codecVec64.Check(&cw); res {
			case ecc.Corrected:
				if commit {
					w[i] = cw[0]
				}
				c.AddCorrected(1)
			case ecc.Detected:
				return v.faultErr(c, base+i, "secded64 double-bit error")
			}
			dst[i] = math.Float64frombits(cw[0] &^ 0xFF)
		}
		return nil
	}
	for g := 0; g < BlockLen/2; g++ {
		cw := ecc.Word4{w[2*g], w[2*g+1]}
		switch res, _ := codecVec128.Check(&cw); res {
		case ecc.Corrected:
			if commit {
				w[2*g], w[2*g+1] = cw[0], cw[1]
			}
			c.AddCorrected(1)
		case ecc.Detected:
			return v.faultErr(c, base/2+g, "secded128 double-bit error")
		}
		dst[2*g] = math.Float64frombits(cw[0] &^ 0x1F)
		dst[2*g+1] = math.Float64frombits(cw[1] &^ 0x1F)
	}
	return nil
}

// repairCRCBlock is the CRC32C slow path of readBlock, entered when the
// in-place check of block b (stored in w) disagreed. It re-derives the
// verdict from its own serialised copy of the message, searches for the
// flips that explain the syndrome, and delivers the repaired values in
// dst, committing them to storage when commit is true and counting the
// outcome into c.
func (v *Vector) repairCRCBlock(b int, w []uint64, dst *[BlockLen]float64, commit bool, c *Counters) error {
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
	crc := ecc.Checksum(buf[:], v.backend)
	if crc != stored {
		if !correctCRCVecBlock(&lw, buf[:], stored, crc) {
			return v.faultErr(c, b, "crc32c mismatch beyond correction depth")
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

// correctCRCVecBlock attempts syndrome-search correction of a
// CRC32C-protected block: up to two flips in the message bits, the stored
// checksum bits, or one of each. A message flip may land in the low byte
// of words 4-7 (message bytes encoded as zero) but not in that of words
// 0-3, which hold the checksum. On success the words are repaired and it
// returns true.
func correctCRCVecBlock(w *[BlockLen]uint64, msg []byte, stored, computed uint32) bool {
	flips, ok := ecc.CorrectCodeword(msg, stored, computed)
	if !ok {
		return false
	}
	for _, f := range flips {
		if f.InCRC {
			// Checksum slot flip: bit k of the CRC lives in bit k%8 of
			// word k/8's reserved byte.
			w[f.Bit/8] ^= 1 << uint(f.Bit%8)
		} else {
			word := f.Bit / 64
			bit := f.Bit % 64
			if word < 4 && bit < 8 {
				return false // message flips cannot land in checksum slots
			}
			w[word] ^= 1 << uint(bit)
		}
	}
	return true
}

// ReadBlockShared is ReadBlock for vectors read concurrently by several
// goroutines: the block is fully verified and corrections are used for
// the returned values (and counted), but never written back to storage,
// so concurrent readers of one block never race. The stored fault is
// left for the owning goroutine's next serial check or re-encode to
// clear. The sharded operator's halo exchange packs neighbour data
// through this path.
func (v *Vector) ReadBlockShared(b int, dst *[BlockLen]float64) error {
	return v.readBlock(b, dst, false)
}

// ReadBlocksInto verifies blocks [b0,b1) and stores their masked values
// into dst, which must hold at least (b1-b0)*BlockLen elements. It is the
// block-verified sweep primitive: one call verifies a whole contiguous
// span and batches the check accounting into the counters once, instead
// of per-block atomic updates. Corrections are committed to storage.
// Callers that sweep many consecutive blocks (preconditioner decodes,
// halo packing) use it in place of per-block ReadBlock loops.
func (v *Vector) ReadBlocksInto(b0, b1 int, dst []float64) error {
	return v.readBlocks(b0, b1, dst, true)
}

// ReadBlocksSharedInto is ReadBlocksInto under the no-commit discipline
// of ReadBlockShared: corrections are used for the returned values (and
// counted) but never written back, so concurrent readers never race.
func (v *Vector) ReadBlocksSharedInto(b0, b1 int, dst []float64) error {
	return v.readBlocks(b0, b1, dst, false)
}

func (v *Vector) readBlocks(b0, b1 int, dst []float64, commit bool) error {
	if b0 < 0 || b1 > v.Blocks() || b0 > b1 {
		return fmt.Errorf("core: block range [%d,%d) out of range [0,%d)", b0, b1, v.Blocks())
	}
	if len(dst) < (b1-b0)*BlockLen {
		return fmt.Errorf("core: ReadBlocks destination too short: %d < %d", len(dst), (b1-b0)*BlockLen)
	}
	if v.scheme == None {
		return v.ReadBlocksUnverifiedInto(b0, b1, dst) // nothing to verify: one plain copy
	}
	v.counters.AddChecks(uint64(b1-b0) * v.checksPerBlock())
	for b := b0; b < b1; b++ {
		if err := v.readBlock(b, (*[BlockLen]float64)(dst[(b-b0)*BlockLen:]), commit); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlocksUnverifiedInto streams the masked payload of blocks [b0,b1)
// into dst with no codeword decode at all: ModeUnverified's block-sweep
// primitive. Range and length errors are still reported — the unverified
// contract drops integrity checks, not memory safety — but nothing is
// verified, nothing is committed, and the check counters are untouched,
// so concurrent verified readers of the same storage never race with it.
func (v *Vector) ReadBlocksUnverifiedInto(b0, b1 int, dst []float64) error {
	if b0 < 0 || b1 > v.Blocks() || b0 > b1 {
		return fmt.Errorf("core: block range [%d,%d) out of range [0,%d)", b0, b1, v.Blocks())
	}
	if len(dst) < (b1-b0)*BlockLen {
		return fmt.Errorf("core: ReadBlocks destination too short: %d < %d", len(dst), (b1-b0)*BlockLen)
	}
	mask := v.scheme.vecMask()
	for i, w := range v.words[b0*BlockLen : b1*BlockLen] {
		dst[i] = math.Float64frombits(w & mask)
	}
	return nil
}

// ReadBlockNoCheck returns the masked values of block b without integrity
// checking; the less-frequent-checking mode uses it for vectors that are
// known-clean within the interval. Exposed for kernels and tests.
func (v *Vector) ReadBlockNoCheck(b int, dst *[BlockLen]float64) {
	base := b * BlockLen
	mask := v.scheme.vecMask()
	for i := range dst {
		dst[i] = math.Float64frombits(v.words[base+i] & mask)
	}
}

// At returns element i, verifying (and possibly repairing) its codeword.
func (v *Vector) At(i int) (float64, error) {
	if i < 0 || i >= v.n {
		return 0, fmt.Errorf("core: vector index %d out of range [0,%d)", i, v.n)
	}
	var buf [BlockLen]float64
	v.counters.AddChecks(v.checksPerBlock())
	if err := v.ReadBlock(i/BlockLen, &buf); err != nil {
		return 0, err
	}
	return buf[i%BlockLen], nil
}

// Set stores element i, paying the full read-modify-write cost: the
// containing block is checked, modified and re-encoded. Sequential writers
// should use WriteBlock or a Writer instead (paper section VI-C).
func (v *Vector) Set(i int, x float64) error {
	if i < 0 || i >= v.n {
		return fmt.Errorf("core: vector index %d out of range [0,%d)", i, v.n)
	}
	var buf [BlockLen]float64
	b := i / BlockLen
	v.counters.AddChecks(v.checksPerBlock())
	if err := v.ReadBlock(b, &buf); err != nil {
		return err
	}
	buf[i%BlockLen] = x
	v.WriteBlock(b, &buf)
	return nil
}

// CheckAll verifies every codeword, repairing what it can, and returns the
// number of corrections along with the first uncorrectable error (nil when
// the vector is clean or fully repaired). This is the end-of-timestep
// scrub required by the less-frequent-checking mode.
func (v *Vector) CheckAll() (corrected int, err error) {
	// Count into a local accumulator: the tally is exact even for
	// untracked vectors or counters shared with concurrent work, and v is
	// only read, so a scrub never races with ReadBlockShared readers.
	var acc Counters
	var buf [BlockLen]float64
	for b := 0; b < v.Blocks(); b++ {
		if e := v.readBlockCounting(b, &buf, true, &acc); e != nil && err == nil {
			err = e
		}
	}
	v.counters.AddChecks(uint64(v.Blocks()) * v.checksPerBlock())
	v.counters.AddCorrected(acc.Corrected())
	v.counters.AddDetected(acc.Detected())
	return int(acc.Corrected()), err
}

// CopyTo writes the masked logical contents into dst, which must have
// length >= Len. The integrity of every codeword is verified.
func (v *Vector) CopyTo(dst []float64) error {
	if len(dst) < v.n {
		return fmt.Errorf("core: CopyTo destination too short: %d < %d", len(dst), v.n)
	}
	v.counters.AddChecks(uint64(v.Blocks()) * v.checksPerBlock())
	var buf [BlockLen]float64
	for b := 0; b < v.Blocks(); b++ {
		if err := v.ReadBlock(b, &buf); err != nil {
			return err
		}
		lo := b * BlockLen
		for i := 0; i < BlockLen && lo+i < v.n; i++ {
			dst[lo+i] = buf[i]
		}
	}
	return nil
}

// CopyToUnverified is CopyTo with no codeword decode: the masked payload
// streams out as stored, nothing is verified or committed, and the check
// counters are untouched. It is the whole-vector read of ModeUnverified.
func (v *Vector) CopyToUnverified(dst []float64) error {
	if len(dst) < v.n {
		return fmt.Errorf("core: CopyTo destination too short: %d < %d", len(dst), v.n)
	}
	var buf [BlockLen]float64
	for b := 0; b < v.Blocks(); b++ {
		v.ReadBlockNoCheck(b, &buf)
		lo := b * BlockLen
		for i := 0; i < BlockLen && lo+i < v.n; i++ {
			dst[lo+i] = buf[i]
		}
	}
	return nil
}

// CopyFrom encodes the first Len elements of src into v block by block,
// the padding as zeros: CopyTo's inverse, with no read of v's old
// contents. src must hold at least Len elements.
func (v *Vector) CopyFrom(src []float64) {
	var buf [BlockLen]float64
	for b := 0; b < v.Blocks(); b++ {
		n := copy(buf[:], src[b*BlockLen:v.n])
		clear(buf[n:])
		v.WriteBlock(b, &buf)
	}
}

// Fill sets every element to x.
func (v *Vector) Fill(x float64) {
	var buf [BlockLen]float64
	for i := range buf {
		buf[i] = x
	}
	last := v.Blocks() - 1
	for b := 0; b <= last; b++ {
		if b == last {
			for i := v.n - last*BlockLen; i < BlockLen; i++ {
				buf[i] = 0
			}
		}
		v.WriteBlock(b, &buf)
	}
}

// Clone returns an independent copy sharing no storage (the counters
// pointer is shared).
func (v *Vector) Clone() *Vector {
	out := &Vector{
		scheme:   v.scheme,
		backend:  v.backend,
		n:        v.n,
		words:    append([]uint64(nil), v.words...),
		counters: v.counters,
	}
	return out
}
