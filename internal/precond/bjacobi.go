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
// diagonal blocks (two) and a range aligned to the vector block never
// splits one: z does not depend on how an Apply splits its rows.
const diagBlock = 4

// blockJacobiPre is the block-Jacobi preconditioner: the diagonal 4x4
// blocks of A are densely inverted at setup and the inverses stored
// row-by-row in one codeword-protected vector, so one block's inverse is
// two vector blocks. Apply solves the block systems one vector block of
// r at a time — the two diagonal blocks it holds, their inverses read in
// one batch-verified call — over row ranges split across Workers on
// every Apply. Its inverse vector holds the block inverses: elements
// [16b, 16b+16) are diagonal block b's inverse, row by row.
type blockJacobiPre struct{ inverse }

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
	return &blockJacobiPre{newInverse(n, flat, opt)}, nil
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

// Apply computes z = M^-1 r in parallel: every diagonal block's system
// is solved with the protected precomputed inverse.
func (p *blockJacobiPre) Apply(z, r *core.Vector) error {
	if err := checkLengths(BlockJacobi, p.rows, z, r); err != nil {
		return err
	}
	return par.ForEach(p.rows, p.workers, core.BlockLen, func(lo, hi int) error {
		var rv [chunk * core.BlockLen]float64
		var out [core.BlockLen]float64
		// The inverses of the diagonal blocks one vector block of r holds
		// span diagBlock consecutive vector blocks of inv, read in one
		// call.
		var iv [core.BlockLen * diagBlock]float64
		b1 := (hi + core.BlockLen - 1) / core.BlockLen
		for c0 := lo / core.BlockLen; c0 < b1; c0 += chunk {
			c1 := min(c0+chunk, b1)
			if err := r.Read(c0, c1, rv[:], core.ModeExclusive); err != nil {
				return err
			}
			for blk := c0; blk < c1; blk++ {
				if err := p.inv.Read(blk*diagBlock, (blk+1)*diagBlock, iv[:], p.mode); err != nil {
					return err
				}
				for i := range out {
					row := iv[i*diagBlock:]
					x := rv[(blk-c0)*core.BlockLen+i/diagBlock*diagBlock:]
					out[i] = row[0]*x[0] + row[1]*x[1] + row[2]*x[2] + row[3]*x[3]
				}
				z.WriteBlock(blk, &out)
			}
		}
		return nil
	})
}

// Kind names the algorithm.
func (p *blockJacobiPre) Kind() Kind { return BlockJacobi }
