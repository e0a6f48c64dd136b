package sell

import (
	"fmt"

	"abft/internal/core"
)

// ApplyBatch computes dst = m * x for every column of x in one verified
// pass over the slices, satisfying core.BatchApplier: applyK at width
// x.K(), so the matrix-side check cost is paid per pass instead of per
// right-hand side and per-column results are bit-identical to k
// independent Apply calls.
func (m *Matrix) ApplyBatch(dst, x *core.MultiVector, workers int) error {
	if dst.K() != x.K() {
		return fmt.Errorf("sell: SpMM width mismatch: dst %d, x %d", dst.K(), x.K())
	}
	return m.applyK(dst.Cols(), x.Cols(), workers, false)
}
