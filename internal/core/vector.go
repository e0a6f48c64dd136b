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
// depending on scheme). Read/WriteBlock move whole blocks and are what
// the kernels use; At/Set are the random-access paths, with Set
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

// readBlock verifies block b, correcting single-bit errors in the values
// it stores in dst and, when commit is true, in storage; it counts no
// checks (its callers count per span). Readers that may share a block
// with other goroutines pass commit=false, so only the owner ever writes
// it; the stored fault is repaired by the next committing check.
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
		// the codeword image and its repair (DESIGN.md section 31).
		if crc, stored := ecc.BlockChecksum((*[BlockLen]uint64)(w), v.backend); crc != stored {
			var img [8 * BlockLen]byte
			for i, x := range w {
				if i < 4 {
					x &^= 0xFF
				}
				binary.LittleEndian.PutUint64(img[8*i:], x)
			}
			if !ecc.RepairCodeword(img[:], vecSlot, stored, crc) {
				return v.faultErr(c, b, "crc32c mismatch beyond correction depth")
			}
			c.AddCorrected(1)
			for i := range dst {
				x := binary.LittleEndian.Uint64(img[8*i:])
				if commit {
					w[i] = x
				}
				dst[i] = math.Float64frombits(x &^ 0xFF)
			}
			return nil
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

// vecSlot places bit k of a vector block's checksum in its codeword
// image: bit k%8 of the low byte of word k/8.
func vecSlot(k int) int { return 64*(k/8) + k%8 }

// Read stores the masked values of blocks [b0, b1) in dst, which must
// hold at least (b1-b0)*BlockLen elements: the one read of a protected
// vector. Range and length errors are reported in every mode. Under the
// verifying modes every codeword of the span is checked, single-bit
// errors are repaired in the returned values — and in storage when
// mode.Commits() — and the span's checks are counted once per call: a
// read counts its own checks. On an uncorrectable error dst is left in an
// unspecified state and a *FaultError is returned. Under ModeUnverified,
// and for scheme None, which has nothing to verify, the masked payload is
// copied with no decode, no commit and no counting, so it never races a
// verified reader of the same storage.
func (v *Vector) Read(b0, b1 int, dst []float64, mode ReadMode) error {
	if b0 < 0 || b1 > v.Blocks() || b0 > b1 {
		return fmt.Errorf("core: block range [%d,%d) out of range [0,%d)", b0, b1, v.Blocks())
	}
	if len(dst) < (b1-b0)*BlockLen {
		return fmt.Errorf("core: Read destination too short: %d < %d", len(dst), (b1-b0)*BlockLen)
	}
	if !mode.Verifies() || v.scheme == None {
		mask := v.scheme.vecMask()
		for i, w := range v.words[b0*BlockLen : b1*BlockLen] {
			dst[i] = math.Float64frombits(w & mask)
		}
		return nil
	}
	v.counters.AddChecks(uint64(b1-b0) * v.checksPerBlock())
	for b := b0; b < b1; b++ {
		if err := v.readBlock(b, (*[BlockLen]float64)(dst[(b-b0)*BlockLen:]), mode.Commits()); err != nil {
			return err
		}
	}
	return nil
}

// payload stores the masked values of block b in dst with no decode and
// no counting: a pass's per-block unverified read, and the read-back of
// a block a kernel has just written.
func (v *Vector) payload(b int, dst *[BlockLen]float64) {
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
	b := i / BlockLen
	if err := v.Read(b, b+1, buf[:], ModeExclusive); err != nil {
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
	if err := v.Read(b, b+1, buf[:], ModeExclusive); err != nil {
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
	// only read, so a scrub never races with shared-mode readers.
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
// length >= Len: Read of the whole blocks straight into dst, then of the
// partial tail block through a buffer, verified and committed.
func (v *Vector) CopyTo(dst []float64) error {
	if len(dst) < v.n {
		return fmt.Errorf("core: CopyTo destination too short: %d < %d", len(dst), v.n)
	}
	full := v.n / BlockLen
	if err := v.Read(0, full, dst, ModeExclusive); err != nil || full == v.Blocks() {
		return err
	}
	var tail [BlockLen]float64
	if err := v.Read(full, full+1, tail[:], ModeExclusive); err != nil {
		return err
	}
	copy(dst[full*BlockLen:v.n], tail[:])
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
