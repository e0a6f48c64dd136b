package precond

import (
	"sync"

	"abft/internal/core"
	"abft/internal/csr"
)

// sgsScratch is one in-flight Apply's scanner and work arrays. Scratch
// sets are pooled so concurrent solves sharing one cached
// preconditioner (abftd applies it under the entry's shared lock)
// never serialize on a single sweep buffer: shared-mode scans write no
// matrix storage, so concurrent scanners are safe.
type sgsScratch struct {
	scan            *core.RowScanner
	rv, y, zv, invd []float64
}

// sgsPre is the symmetric Gauss-Seidel preconditioner
// z = (D+U)^-1 D (D+L)^-1 r: a forward and a backward triangular sweep
// through a codeword-protected CSR copy of the operator, plus a
// protected inverse diagonal. Both sweeps stream the matrix through
// core.RowScanner, so every element and row-pointer codeword is
// verified (and repaired where the scheme allows) on every application
// — the triangular factors are exactly as protected as the system
// matrix itself.
type sgsPre struct {
	rows int
	m    *core.Matrix
	inv  *core.Vector
	mode core.ReadMode

	mu   sync.Mutex
	free []*sgsScratch
}

func newSGS(src *csr.Matrix, opt Options) (*sgsPre, error) {
	d, err := invertDiagonal(diagonal(src))
	if err != nil {
		return nil, err
	}
	m, err := core.NewMatrix(src, core.MatrixOptions{
		ElemScheme:   opt.Scheme,
		RowPtrScheme: opt.Scheme,
		Backend:      opt.Backend,
	})
	if err != nil {
		return nil, err
	}
	inv := core.VectorFromSlice(d, opt.Scheme)
	inv.SetCRCBackend(opt.Backend)
	return &sgsPre{rows: src.Rows(), m: m, inv: inv}, nil
}

// getScratch pops a pooled scratch set or allocates a fresh one when
// every pooled set is held by an in-flight Apply.
func (p *sgsPre) getScratch() *sgsScratch {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		ws := p.free[n-1]
		p.free = p.free[:n-1]
		return ws
	}
	return &sgsScratch{
		scan: p.m.NewRowScanner(),
		rv:   make([]float64, p.rows),
		y:    make([]float64, p.rows),
		zv:   make([]float64, p.rows),
		invd: make([]float64, p.inv.Blocks()*core.BlockLen),
	}
}

func (p *sgsPre) putScratch(ws *sgsScratch) {
	p.mu.Lock()
	p.free = append(p.free, ws)
	p.mu.Unlock()
}

// Apply computes z = (D+U)^-1 D (D+L)^-1 r with verified sweeps.
func (p *sgsPre) Apply(z, r *core.Vector) error {
	if err := checkLengths(SGS, p.rows, z, r); err != nil {
		return err
	}
	ws := p.getScratch()
	defer p.putScratch(ws)
	// A fresh sweep re-verifies codewords memoised by a previous one.
	ws.scan.Reset()
	if err := p.inv.Read(0, p.inv.Blocks(), ws.invd, p.mode); err != nil {
		return err
	}
	if err := r.CopyTo(ws.rv); err != nil {
		return err
	}
	// Forward sweep: (D+L) y = r.
	for i := 0; i < p.rows; i++ {
		s := ws.rv[i]
		if err := ws.scan.Row(i, func(c int, v float64) {
			if c < i {
				s -= v * ws.y[c]
			}
		}); err != nil {
			return err
		}
		ws.y[i] = s * ws.invd[i]
	}
	// Backward sweep: (D+U) z = D y, i.e. z_i = y_i - D_i^-1 sum_{c>i} A_ic z_c.
	for i := p.rows - 1; i >= 0; i-- {
		var s float64
		if err := ws.scan.Row(i, func(c int, v float64) {
			if c > i {
				s += v * ws.zv[c]
			}
		}); err != nil {
			return err
		}
		ws.zv[i] = ws.y[i] - ws.invd[i]*s
	}
	z.CopyFrom(ws.zv)
	return nil
}

// Rows returns the operator dimension.
func (p *sgsPre) Rows() int { return p.rows }

// Kind names the algorithm.
func (p *sgsPre) Kind() Kind { return SGS }

// Scrub patrols both protected structures: the matrix copy and the
// inverse diagonal. It continues past a faulty structure so the full
// damage is counted, matching the ProtectedMatrix contract; the owner
// serializes it against Apply, exactly as for a protected matrix.
func (p *sgsPre) Scrub() (corrected int, err error) {
	n, err := p.m.CheckAll()
	corrected += n
	n2, err2 := p.inv.CheckAll()
	corrected += n2
	if err == nil {
		err = err2
	}
	return corrected, err
}

// SetCounters attaches a statistics accumulator to every protected
// structure.
func (p *sgsPre) SetCounters(c *core.Counters) {
	p.m.SetCounters(c)
	p.inv.SetCounters(c)
}

// SetReadMode selects the read discipline for the sweeps, propagating
// it to the protected triangular-sweep matrix. Must be set before the
// preconditioner is shared.
func (p *sgsPre) SetReadMode(mode core.ReadMode) {
	p.mode = mode
	p.m.SetReadMode(mode)
}

// Matrix exposes the protected triangular-sweep matrix (fault
// injection and inspection).
func (p *sgsPre) Matrix() *core.Matrix { return p.m }

// RawState exposes the protected inverse diagonal for fault injection;
// the matrix copy is reachable through Matrix.
func (p *sgsPre) RawState() []*core.Vector { return []*core.Vector{p.inv} }
