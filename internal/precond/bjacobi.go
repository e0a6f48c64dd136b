package precond

import (
	"fmt"
	"math"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/par"
)

// blockJacobiPre is the block-Jacobi preconditioner over the codeword
// blocks: the diagonal 4x4 blocks of A (the protected vectors' codeword
// granularity, so no block ever straddles two ECC groups) are densely
// inverted at setup and the inverses stored row-by-row in one
// codeword-protected vector. Apply solves every block system with four
// verified reads per block and runs band-parallel; over a sharded
// operator the bands follow the shard decomposition, so the
// preconditioner applies per-band on goroutines matching the shard
// layout.
type blockJacobiPre struct {
	rows int
	// inv holds the block inverses: vector block 4*b+i is row i of
	// diagonal block b's inverse.
	inv   *core.Vector
	bands [][2]int
	mode  core.ReadMode
	applies
	counters *core.Counters
}

func newBlockJacobi(src *csr.Matrix, opt Options) (*blockJacobiPre, error) {
	n := src.Rows()
	nb := (n + blockLen - 1) / blockLen
	blocks := make([][blockLen][blockLen]float64, nb)
	// Padding rows beyond n get an identity diagonal so every block
	// stays invertible; their solution components are never read.
	for b := range blocks {
		for i := 0; i < blockLen; i++ {
			if b*blockLen+i >= n {
				blocks[b][i][i] = 1
			}
		}
	}
	for r := 0; r < n; r++ {
		b, i := r/blockLen, r%blockLen
		for k := src.RowPtr[r]; k < src.RowPtr[r+1]; k++ {
			if c := int(src.Cols[k]); c/blockLen == b {
				blocks[b][i][c%blockLen] += src.Vals[k]
			}
		}
	}
	flat := make([]float64, nb*blockLen*blockLen)
	for b := range blocks {
		if !invertBlock(&blocks[b]) {
			return nil, fmt.Errorf("precond: singular diagonal block at rows [%d,%d)",
				b*blockLen, b*blockLen+blockLen)
		}
		for i := 0; i < blockLen; i++ {
			copy(flat[(b*blockLen+i)*blockLen:], blocks[b][i][:])
		}
	}
	inv := core.VectorFromSlice(flat, opt.Scheme)
	inv.SetCRCBackend(opt.Backend)

	bands := opt.Bands
	if len(bands) == 0 {
		bands = par.Ranges(n, opt.Workers, blockLen)
	}
	// The bands must tile [0, rows) exactly: a gap leaves z rows
	// unwritten (a silently singular preconditioner), an overlap races
	// concurrent writes of one codeword block.
	next := 0
	for _, bd := range bands {
		if bd[0]%blockLen != 0 {
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
func invertBlock(a *[blockLen][blockLen]float64) bool {
	var inv [blockLen][blockLen]float64
	for i := range inv {
		inv[i][i] = 1
	}
	for col := 0; col < blockLen; col++ {
		pivot := col
		for r := col + 1; r < blockLen; r++ {
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
		for j := 0; j < blockLen; j++ {
			a[col][j] /= p
			inv[col][j] /= p
		}
		for r := 0; r < blockLen; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < blockLen; j++ {
				a[r][j] -= f * a[col][j]
				inv[r][j] -= f * inv[col][j]
			}
		}
	}
	*a = inv
	return true
}

// Apply computes z = M^-1 r band-parallel: every codeword block's
// system is solved with the protected precomputed inverse.
func (p *blockJacobiPre) Apply(z, r *core.Vector) error {
	if z.Len() != p.rows || r.Len() != p.rows {
		return fmt.Errorf("precond: bjacobi Apply length mismatch: z %d, r %d, rows %d",
			z.Len(), r.Len(), p.rows)
	}
	p.bump()
	return par.Run(p.bands, func(lo, hi int) error {
		var rv, out [blockLen]float64
		// One diagonal block's inverse spans four consecutive vector
		// blocks, so the whole 4x4 inverse is batch-verified in a single
		// ReadBlocks call instead of four per-row reads.
		var iv [blockLen * blockLen]float64
		readInv := p.inv.ReadBlocksInto
		switch p.mode {
		case core.ModeShared:
			readInv = p.inv.ReadBlocksSharedInto
		case core.ModeUnverified:
			readInv = p.inv.ReadBlocksUnverifiedInto
		}
		b0 := lo / blockLen
		nb := (hi - lo + blockLen - 1) / blockLen
		vecChecks(r, nb)
		for blk := b0; blk < b0+nb; blk++ {
			if err := r.ReadBlock(blk, &rv); err != nil {
				return err
			}
			if err := readInv(blk*blockLen, (blk+1)*blockLen, iv[:]); err != nil {
				return err
			}
			for i := 0; i < blockLen; i++ {
				row := iv[i*blockLen:]
				out[i] = row[0]*rv[0] + row[1]*rv[1] + row[2]*rv[2] + row[3]*rv[3]
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

// Stats reports apply counts and integrity statistics.
func (p *blockJacobiPre) Stats() Stats {
	return Stats{Applies: p.n.Load(), Counters: p.counters.Snapshot()}
}

// SetCounters attaches a statistics accumulator to the state vector.
func (p *blockJacobiPre) SetCounters(c *core.Counters) {
	p.counters = c
	p.inv.SetCounters(c)
}

// SetReadMode selects the read discipline for the protected state.
func (p *blockJacobiPre) SetReadMode(mode core.ReadMode) { p.mode = mode }

// RawState exposes the protected inverse blocks for fault injection.
func (p *blockJacobiPre) RawState() []*core.Vector { return []*core.Vector{p.inv} }
