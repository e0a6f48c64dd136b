package core

// ProtectedMatrix is the format-agnostic contract every ABFT-protected
// sparse matrix implementation satisfies: CSR (this package), coordinate
// format (internal/coo) and SELL-C-sigma (internal/sell). Solvers, fault
// campaigns and benchmarks depend on this interface only, never on a
// concrete storage layout — the "opaque operator" framing of
// Elliott/Hoemmen/Mueller applied to the paper's embedded-ECC matrices.
//
// Implementations embed their redundancy in otherwise-unused bits of their
// own storage (zero overhead), verify the codewords they stream through
// during Apply, and repair what their scheme can correct. Every one also
// provides the batched kernel, the unverified kernel and its element
// codeword geometry; the three stay named interfaces so a wrapper can
// forward just the kernels it needs. The three storage formats write the
// contract once: each embeds a Shell and supplies only its Layout, its
// raw arrays and its codeword geometry.
type ProtectedMatrix interface {
	BatchApplier
	UnverifiedApplier
	ElemSpanner
	// Rows returns the number of rows.
	Rows() int
	// Cols returns the number of columns.
	Cols() int
	// NNZ returns the number of stored entries (including any padding a
	// scheme's structural constraints required).
	NNZ() int
	// Scheme returns the element protection scheme.
	Scheme() Scheme
	// Apply computes dst = A x with integrity checking, using up to
	// workers goroutines (values below 2 run serially).
	Apply(dst, x *Vector, workers int) error
	// Diagonal extracts the fully verified main diagonal into dst
	// (length >= Rows), for building Jacobi preconditioners.
	Diagonal(dst []float64) error
	// Scrub verifies and repairs every codeword of the matrix — the
	// end-of-timestep patrol sweep of paper section VI-A-2. It returns
	// the number of corrections and the first uncorrectable error,
	// continuing past errors so the full damage is counted.
	Scrub() (corrected int, err error)
	// SetCounters attaches a statistics accumulator (shared or nil).
	SetCounters(*Counters)
	// SetReadMode selects the read discipline Apply runs under.
	// ModeShared marks the matrix as applied concurrently from multiple
	// goroutines: Apply must not write matrix storage (corrections are
	// counted and used for detection but not committed), leaving repair
	// to Scrub, which the owner serializes against Apply. Must be set
	// before the matrix becomes visible to other goroutines.
	SetReadMode(ReadMode)
	// CounterSnapshot returns a point-in-time copy of the attached
	// counters (zeros when none are attached).
	CounterSnapshot() CounterSnapshot
	// RawVals exposes the stored values for fault injection.
	RawVals() []float64
	// RawCols exposes the stored column indices (data + embedded ECC)
	// for fault injection.
	RawCols() []uint32
}

// UnverifiedApplier is the ProtectedMatrix kernel of a per-call
// ModeUnverified Apply that skips codeword decode entirely (payload
// stream plus column mask and bounds checks only), never commits, and leaves the check counters untouched. It
// exists so a cached shared operator can serve a selective-reliability
// inner solve concurrently with verified readers without its stored
// read mode ever being mutated mid-solve.
type UnverifiedApplier interface {
	ApplyUnverified(dst, x *Vector, workers int) error
}

// ElemSpanner is the ProtectedMatrix capability that exposes the
// format's element-codeword geometry to fault injectors, which need to
// confine flips to a single codeword when measuring per-codeword capability (the paper's nECmED budget). pick is
// the caller's uniform random chooser over [0, n). The codeword covers
// storage positions [base, base+span) of the value and column arrays:
// every element codeword in this repository is a contiguous storage
// range.
type ElemSpanner interface {
	ElemCodewordSpan(pick func(n int) int) (base, span int)
}

// ElemCodewordSpan reports the positions of one randomly chosen element
// codeword, satisfying ElemSpanner: single entries under SED/SECDED64,
// consecutive pairs under SECDED128, a whole matrix row under CRC32C.
func (m *Matrix) ElemCodewordSpan(pick func(n int) int) (base, span int) {
	switch m.scheme {
	case SECDED128:
		return pick(len(m.colIdx)/2) * 2, 2
	case CRC32C:
		r := pick(m.rows)
		lo, hi, err := m.RowRange(r)
		if err == nil && hi > lo {
			return lo, hi - lo
		}
	}
	return pick(len(m.colIdx)), 1
}
