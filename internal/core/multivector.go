package core

import (
	"fmt"

	"abft/internal/ecc"
)

// MultiVector is a column-blocked batch of k protected vectors sharing
// one length and scheme: the multi-RHS operand of the batched kernels.
// Each column is a full codeword-protected Vector, so every single-RHS
// invariant (mask-on-read, commit discipline, counter accounting) holds
// per column unchanged and batched results can be compared bit-exactly
// against k independent single-RHS runs.
//
// Columns may carry distinct counters (the service attributes per-job
// vector checks that way): every kernel reads a multivector one column
// at a time through that column's own Vector methods, so checks land in
// the column's own counters exactly as in a single-RHS run.
type MultiVector struct {
	cols []*Vector
	n    int
	k    int
}

// NewMultiVector returns a zero-filled k-column protected multivector
// of per-column length n.
func NewMultiVector(n, k int, s Scheme) *MultiVector {
	if k <= 0 {
		panic("core: non-positive multivector width")
	}
	cols := make([]*Vector, k)
	for j := range cols {
		cols[j] = NewVector(n, s)
	}
	return &MultiVector{cols: cols, n: n, k: k}
}

// WrapMultiVector assembles a multivector over existing columns, which
// must agree in length and scheme. The columns are shared, not copied:
// writes through the multivector are visible to the originals, which is
// how the service gives each coalesced job its own counter-carrying
// column inside one batched solve.
func WrapMultiVector(cols ...*Vector) (*MultiVector, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("core: WrapMultiVector needs at least one column")
	}
	n, s := cols[0].Len(), cols[0].Scheme()
	for j, c := range cols {
		if c.Len() != n {
			return nil, fmt.Errorf("core: column %d length %d != %d", j, c.Len(), n)
		}
		if c.Scheme() != s {
			return nil, fmt.Errorf("core: column %d scheme %v != %v", j, c.Scheme(), s)
		}
	}
	return &MultiVector{cols: cols, n: n, k: len(cols)}, nil
}

// View makes mv a width-len(parents) view of the n elements starting at
// block b0 of every parent: column j shares parents[j]'s words (blocks
// [b0, b0+⌈n/BlockLen⌉), which must lie inside it), scheme, CRC backend
// and counters, so a write through mv is a write to the parents and both
// read the same codewords. mv keeps its column headers while the width
// stays the same, so re-pointing a view allocates nothing; the zero
// MultiVector allocates its headers on first use. The sharded operator
// writes each band's product through such a view straight into the
// caller's destinations.
func (mv *MultiVector) View(parents []*Vector, b0, n int) {
	if len(mv.cols) != len(parents) {
		hdrs := make([]Vector, len(parents))
		mv.cols = make([]*Vector, len(parents))
		for j := range hdrs {
			mv.cols[j] = &hdrs[j]
		}
	}
	for j, p := range parents {
		mv.cols[j].view(p, b0, n)
	}
	mv.n, mv.k = n, len(parents)
}

// Len returns the per-column logical element count.
func (mv *MultiVector) Len() int { return mv.n }

// K returns the number of columns (the batch width).
func (mv *MultiVector) K() int { return mv.k }

// Scheme returns the shared protection scheme.
func (mv *MultiVector) Scheme() Scheme { return mv.cols[0].Scheme() }

// Blocks returns the per-column number of BlockLen-element blocks.
func (mv *MultiVector) Blocks() int { return mv.cols[0].Blocks() }

// Col returns column j.
func (mv *MultiVector) Col(j int) *Vector { return mv.cols[j] }

// Cols returns the column vectors, shared with mv: the form the apply
// skeletons take their k operands in. Callers must not modify the slice.
func (mv *MultiVector) Cols() []*Vector { return mv.cols }

// SetCounters attaches one accumulator to every column.
func (mv *MultiVector) SetCounters(c *Counters) {
	for _, col := range mv.cols {
		col.SetCounters(c)
	}
}

// SetCRCBackend selects the CRC32C implementation for every column.
func (mv *MultiVector) SetCRCBackend(b ecc.Backend) {
	for _, col := range mv.cols {
		col.SetCRCBackend(b)
	}
}

// CheckAll scrubs every column, returning total corrections and the
// first uncorrectable error.
func (mv *MultiVector) CheckAll() (corrected int, err error) {
	for _, col := range mv.cols {
		c, e := col.CheckAll()
		corrected += c
		if e != nil && err == nil {
			err = e
		}
	}
	return corrected, err
}
