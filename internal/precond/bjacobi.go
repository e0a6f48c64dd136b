package precond

import (
	"fmt"
	"math"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/par"
)

// diagBlock is the order of block-Jacobi's diagonal blocks. It divides
// core.BlockLen, so a protected-vector block of r or z holds whole
// diagonal blocks (two) and a band aligned to the vector block never
// splits one.
const diagBlock = 4

// blockJacobiPre is the block-Jacobi preconditioner: the diagonal 4x4
// blocks of A are densely inverted at setup and the inverses stored
// row-by-row in one codeword-protected vector, so one block's inverse is
// two vector blocks. Apply solves the block systems one vector block of
// r at a time — the two diagonal blocks it holds, their inverses read in
// one batch-verified call — and runs band-parallel; over a sharded
// operator the bands follow the shard decomposition, so the
// preconditioner applies per-band on goroutines matching the shard
// layout.
type blockJacobiPre struct {
	rows int
	// inv holds the block inverses: elements [16b, 16b+16) are diagonal
	// block b's inverse, row by row.
	inv   *core.Vector
	bands [][2]int
	mode  core.ReadMode
}

func newBlockJacobi(src *csr.Matrix, opt Options) (*blockJacobiPre, error) {
	n := src.Rows()
	// Whole vector blocks of diagonal blocks: padding rows beyond n get
	// an identity diagonal so every block stays invertible; their
	// solution components are never read.
	nb := (n + core.BlockLen - 1) / core.BlockLen * (core.BlockLen / diagBlock)
	blocks := make([][diagBlock][diagBlock]float64, nb)
	for b := range blocks {
		for i := 0; i < diagBlock; i++ {
			if b*diagBlock+i >= n {
				blocks[b][i][i] = 1
			}
		}
	}
	for r := 0; r < n; r++ {
		b, i := r/diagBlock, r%diagBlock
		for k := src.RowPtr[r]; k < src.RowPtr[r+1]; k++ {
			if c := int(src.Cols[k]); c/diagBlock == b {
				blocks[b][i][c%diagBlock] += src.Vals[k]
			}
		}
	}
	flat := make([]float64, nb*diagBlock*diagBlock)
	for b := range blocks {
		if !invertBlock(&blocks[b]) {
			return nil, fmt.Errorf("precond: singular diagonal block at rows [%d,%d)",
				b*diagBlock, b*diagBlock+diagBlock)
		}
		for i := 0; i < diagBlock; i++ {
			copy(flat[(b*diagBlock+i)*diagBlock:], blocks[b][i][:])
		}
	}
	inv := core.VectorFromSlice(flat, opt.Scheme)
	inv.SetCRCBackend(opt.Backend)

	bands := opt.Bands
	if len(bands) == 0 {
		bands = par.Ranges(n, opt.Workers, core.BlockLen)
	}
	// The bands must tile [0, rows) exactly: a gap leaves z rows
	// unwritten (a silently singular preconditioner), an overlap races
	// concurrent writes of one codeword block.
	next := 0
	for _, bd := range bands {
		if bd[0]%core.BlockLen != 0 {
			return nil, fmt.Errorf("precond: band start %d not aligned to the codeword block", bd[0])
		}
		if bd[0] != next || bd[1] <= bd[0] {
			return nil, fmt.Errorf("precond: bands must tile [0,%d) contiguously; got band [%d,%d) after row %d",
				n, bd[0], bd[1], next)
		}
		next = bd[1]
	}
	if next != n {
		return nil, fmt.Errorf("precond: bands cover [0,%d) of %d rows", next, n)
	}
	return &blockJacobiPre{rows: n, inv: inv, bands: bands}, nil
}

// invertBlock inverts a dense block in place by Gauss-Jordan
// elimination with partial pivoting; it reports false for a singular
// (or numerically singular) block.
func invertBlock(a *[diagBlock][diagBlock]float64) bool {
	var inv [diagBlock][diagBlock]float64
	for i := range inv {
		inv[i][i] = 1
	}
	for col := 0; col < diagBlock; col++ {
		pivot := col
		for r := col + 1; r < diagBlock; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-300 {
			return false
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		p := a[col][col]
		for j := 0; j < diagBlock; j++ {
			a[col][j] /= p
			inv[col][j] /= p
		}
		for r := 0; r < diagBlock; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < diagBlock; j++ {
				a[r][j] -= f * a[col][j]
				inv[r][j] -= f * inv[col][j]
			}
		}
	}
	*a = inv
	return true
}

// Apply computes z = M^-1 r band-parallel: every diagonal block's
// system is solved with the protected precomputed inverse.
func (p *blockJacobiPre) Apply(z, r *core.Vector) error {
	if z.Len() != p.rows || r.Len() != p.rows {
		return fmt.Errorf("precond: bjacobi Apply length mismatch: z %d, r %d, rows %d",
			z.Len(), r.Len(), p.rows)
	}
	return par.Run(p.bands, func(lo, hi int) error {
		var rv, out [core.BlockLen]float64
		// The inverses of the diagonal blocks one vector block of r holds
		// span diagBlock consecutive vector blocks of inv, batch-verified
		// in a single ReadBlocks call.
		var iv [core.BlockLen * diagBlock]float64
		b0 := lo / core.BlockLen
		nb := (hi - lo + core.BlockLen - 1) / core.BlockLen
		vecChecks(r, nb)
		for blk := b0; blk < b0+nb; blk++ {
			if err := r.ReadBlock(blk, &rv); err != nil {
				return err
			}
			if err := readBlocks(p.inv, blk*diagBlock, (blk+1)*diagBlock, iv[:], p.mode); err != nil {
				return err
			}
			for i := range out {
				row := iv[i*diagBlock:]
				x := rv[i/diagBlock*diagBlock:]
				out[i] = row[0]*x[0] + row[1]*x[1] + row[2]*x[2] + row[3]*x[3]
			}
			z.WriteBlock(blk, &out)
		}
		return nil
	})
}

// Rows returns the operator dimension.
func (p *blockJacobiPre) Rows() int { return p.rows }

// Kind names the algorithm.
func (p *blockJacobiPre) Kind() Kind { return BlockJacobi }

// Bands returns the band decomposition Apply parallelises over.
func (p *blockJacobiPre) Bands() [][2]int { return p.bands }

// Scrub patrols the protected inverse-block storage.
func (p *blockJacobiPre) Scrub() (int, error) { return p.inv.CheckAll() }

// SetCounters attaches a statistics accumulator to the state vector.
func (p *blockJacobiPre) SetCounters(c *core.Counters) {
	p.inv.SetCounters(c)
}

// SetReadMode selects the read discipline for the protected state.
func (p *blockJacobiPre) SetReadMode(mode core.ReadMode) { p.mode = mode }

// RawState exposes the protected inverse blocks for fault injection.
func (p *blockJacobiPre) RawState() []*core.Vector { return []*core.Vector{p.inv} }
