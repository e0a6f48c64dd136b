// Package faults implements the fault-injection framework used to evaluate
// the ABFT schemes: deterministic bit flips into the raw storage of
// protected structures (modelling DRAM/SRAM soft errors), campaign runners
// that classify outcomes into the paper's taxonomy (benign, corrected,
// detected-uncorrectable, silent data corruption), and an operator wrapper
// that injects mid-solve.
package faults

import (
	"math/rand"

	"abft/internal/core"
	"abft/internal/enum"
	"abft/internal/solvers"
)

// Outcome classifies the result of an injection trial.
type Outcome int

const (
	// Benign: the flip changed no observable data and raised no error
	// (for example padding storage).
	Benign Outcome = iota
	// Corrected: the data was silently repaired (a DCE).
	Corrected
	// Detected: an uncorrectable error was reported (a DUE) — the
	// application can react, unlike with an SDC.
	Detected
	// SDC: the corruption passed checks unnoticed or was mis-corrected —
	// the failure mode ECC exists to prevent.
	SDC
	// Recovered: an uncorrectable error was detected in dynamic solver
	// state and the recovery controller rolled the solve back past it
	// to the correct answer — the outcome that separates a fault
	// survived from a fault merely reported (the taxonomy extension the
	// checkpoint/rollback engine adds to the paper's benign / DCE /
	// DUE / SDC classes).
	Recovered
)

var outcomes = enum.Table[Outcome]{Names: [][]string{
	Benign:    {"benign"},
	Corrected: {"corrected"},
	Detected:  {"detected"},
	SDC:       {"sdc"},
	Recovered: {"recovered"},
}}

func (o Outcome) String() string { return outcomes.String(o) }

// Injector produces deterministic pseudo-random bit flips.
type Injector struct {
	rng *rand.Rand
}

// NewInjector returns an injector seeded for reproducible campaigns.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Flip records one injected bit flip.
type Flip struct {
	// Word is the index into the structure's raw storage.
	Word int
	// Bit is the flipped bit within that word.
	Bit int
}

// FlipVectorBit flips one bit of a protected vector's raw storage.
func FlipVectorBit(v *core.Vector, f Flip) {
	v.Raw()[f.Word] ^= 1 << uint(f.Bit)
}

// RandomVectorFlips picks n distinct bit positions, optionally confined to
// the codeword group containing element 0 of a random group.
func (in *Injector) RandomVectorFlips(v *core.Vector, n int, sameCodeword bool) []Flip {
	words := len(v.Raw())
	group := v.Scheme().VecGroup()
	base := 0
	if sameCodeword {
		base = in.rng.Intn(words/group) * group
	}
	return in.distinctFlips(n, func() Flip {
		w := in.rng.Intn(words)
		if sameCodeword {
			w = base + in.rng.Intn(group)
		}
		return Flip{Word: w, Bit: in.rng.Intn(64)}
	})
}

// BurstVectorFlips generates a burst error: a random non-empty flip
// pattern confined to a window of at most `window` contiguous bits inside
// one codeword group of v. CRC32C guarantees detection of any burst up to
// 32 bits (the generator polynomial's degree), which the campaign asserts.
func (in *Injector) BurstVectorFlips(v *core.Vector, window int) []Flip {
	group := v.Scheme().VecGroup()
	groupBits := group * 64
	if window > groupBits {
		window = groupBits
	}
	base := in.rng.Intn(len(v.Raw())/group) * group
	start := in.rng.Intn(groupBits - window + 1)
	var out []Flip
	for b := 0; b < window; b++ {
		if in.rng.Intn(2) == 0 {
			continue
		}
		bit := start + b
		out = append(out, Flip{Word: base + bit/64, Bit: bit % 64})
	}
	if len(out) == 0 {
		bit := start + in.rng.Intn(window)
		out = append(out, Flip{Word: base + bit/64, Bit: bit % 64})
	}
	return out
}

func (in *Injector) distinctFlips(n int, gen func() Flip) []Flip {
	seen := make(map[Flip]bool, n)
	out := make([]Flip, 0, n)
	for len(out) < n {
		f := gen()
		if seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}

// MatrixTarget selects which stored structure of a matrix receives flips.
type MatrixTarget int

const (
	// TargetValues flips bits in the stored float64 values.
	TargetValues MatrixTarget = iota
	// TargetCols flips bits in the stored column indices (data + ECC).
	TargetCols
	// TargetRowPtr flips bits in the protected auxiliary index vector:
	// the row pointers of a CSR matrix or the row indices of a COO
	// matrix. SELL-C-sigma has no protected auxiliary structure (its
	// slice metadata is trusted; see internal/sell), so this target is
	// unavailable there.
	TargetRowPtr
)

// auxWords returns the protected auxiliary index vector of a matrix, or
// nil when the format has none. The optional interfaces match the raw
// accessors of internal/core (RawRowPtr) and internal/coo (RawRows).
func auxWords(m core.ProtectedMatrix) []uint32 {
	switch a := m.(type) {
	case interface{ RawRowPtr() []uint32 }:
		return a.RawRowPtr()
	case interface{ RawRows() []uint32 }:
		return a.RawRows()
	default:
		return nil
	}
}

var matrixTargets = enum.Table[MatrixTarget]{Names: [][]string{
	TargetValues: {"values"},
	TargetCols:   {"cols"},
	TargetRowPtr: {"rowptr"},
}}

func (t MatrixTarget) String() string { return matrixTargets.String(t) }

// FlipMatrixBit applies one flip to the chosen structure of a protected
// matrix of any storage format. TargetRowPtr is a no-op on formats
// without a protected auxiliary structure.
func FlipMatrixBit(m core.ProtectedMatrix, target MatrixTarget, f Flip) {
	switch target {
	case TargetValues:
		v := m.RawVals()
		v[f.Word] = flipFloat(v[f.Word], uint(f.Bit))
	case TargetCols:
		m.RawCols()[f.Word] ^= 1 << uint(f.Bit)
	case TargetRowPtr:
		if aux := auxWords(m); aux != nil {
			aux[f.Word] ^= 1 << uint(f.Bit)
		}
	}
}

func flipFloat(x float64, bit uint) float64 {
	return flipFloatBits(x, 1<<bit)
}

// RandomMatrixFlips picks n distinct flips in the chosen structure of a
// protected matrix of any format. With sameCodeword the flips stay within
// one ECC codeword (an element codeword spans the value and index of its
// elements; a CSR row-pointer codeword spans its group of entries). It
// returns nil when the target structure does not exist on the format.
func (in *Injector) RandomMatrixFlips(m core.ProtectedMatrix, target MatrixTarget, n int, sameCodeword bool) []Flip {
	bits := 64
	var words int
	switch target {
	case TargetValues:
		words = len(m.RawVals())
	case TargetCols:
		words, bits = len(m.RawCols()), 32
	case TargetRowPtr:
		words, bits = len(auxWords(m)), 32
	}
	if words == 0 {
		return nil
	}
	base, span := 0, words
	if sameCodeword {
		if c, ok := m.(*core.Matrix); ok && target == TargetRowPtr {
			g := c.RowPtrScheme().RowPtrGroup()
			base = in.rng.Intn(words/g) * g
			span = g
		} else {
			// COO row indices share the element codeword layout, so the
			// format's element span (core.ElemSpanner) covers every
			// non-CSR target.
			base, span = m.ElemCodewordSpan(in.rng.Intn)
		}
	}
	return in.distinctFlips(n, func() Flip {
		return Flip{Word: base + in.rng.Intn(span), Bit: in.rng.Intn(bits)}
	})
}

// InjectingOperator wraps a solver operator and fires Inject just before
// the InjectAt-th application — the mid-solve soft error scenario. It
// forwards every product of the operator contract and names Op through
// Unwrap so the solver engine finds Op's band decomposition behind it: a
// wrapped solve runs the same products and the same reductions as an
// unwrapped one, bit for bit.
type InjectingOperator struct {
	Op solvers.Operator
	// InjectAt is the zero-based application to precede with an
	// injection; Apply, ApplyBatch and ApplyUnverified each count as one.
	InjectAt int
	// Inject performs the corruption.
	Inject func()

	calls int
}

// Rows returns the wrapped operator's dimension.
func (o *InjectingOperator) Rows() int { return o.Op.Rows() }

// Diagonal delegates to the wrapped operator.
func (o *InjectingOperator) Diagonal(dst []float64) error { return o.Op.Diagonal(dst) }

// Apply fires the injection when scheduled, then delegates.
func (o *InjectingOperator) Apply(dst, x *core.Vector) error {
	o.tick()
	return o.Op.Apply(dst, x)
}

// ApplyBatch fires the injection when scheduled, then delegates.
func (o *InjectingOperator) ApplyBatch(dst, x *core.MultiVector) error {
	o.tick()
	return o.Op.ApplyBatch(dst, x)
}

// ApplyUnverified fires the injection when scheduled, then delegates.
func (o *InjectingOperator) ApplyUnverified(dst, x *core.Vector) error {
	o.tick()
	return o.Op.ApplyUnverified(dst, x)
}

// Unwrap returns the wrapped operator, through which the solver engine
// finds Op's band decomposition (solvers.BandedOperator).
func (o *InjectingOperator) Unwrap() solvers.Operator { return o.Op }

// tick counts one application, firing Inject before the InjectAt-th.
func (o *InjectingOperator) tick() {
	if o.calls == o.InjectAt && o.Inject != nil {
		o.Inject()
	}
	o.calls++
}
