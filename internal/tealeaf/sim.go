package tealeaf

import (
	"fmt"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

// Simulation is a running TeaLeaf instance. The application state (density
// and energy fields) lives in plain slices; every solver data structure —
// the CSR matrix and all dense vectors — is ABFT-protected per the
// configuration.
type Simulation struct {
	cfg Config

	density []float64 // cell density, constant over the run
	energy  []float64 // specific energy, updated each step

	kx, ky []float64 // face conduction coefficients
	rx, ry float64

	matrix   core.ProtectedMatrix
	precond  precond.Preconditioner
	counters core.Counters
	step     int
}

// New initialises the fields from the configured states and builds the
// protected matrix.
func New(cfg Config) (*Simulation, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulation{cfg: cfg}
	s.initFields()
	s.initCoefficients()
	if err := s.buildMatrix(); err != nil {
		return nil, err
	}
	return s, nil
}

// Config returns the simulation configuration.
func (s *Simulation) Config() Config { return s.cfg }

// Counters exposes the shared ABFT statistics for the whole run.
func (s *Simulation) Counters() *core.Counters { return &s.counters }

// Matrix exposes the protected system matrix (for fault injection). Its
// concrete type depends on Config.Format.
func (s *Simulation) Matrix() core.ProtectedMatrix { return s.matrix }

// Preconditioner exposes the protected preconditioner, nil when
// Config.Precond is none (for fault injection and statistics).
func (s *Simulation) Preconditioner() precond.Preconditioner { return s.precond }

// Density returns the cell density field (row-major, no halo).
func (s *Simulation) Density() []float64 { return s.density }

// Energy returns the current specific-energy field.
func (s *Simulation) Energy() []float64 { return s.energy }

// Step returns the number of completed timesteps.
func (s *Simulation) Step() int { return s.step }

func (s *Simulation) initFields() {
	cfg := s.cfg
	n := cfg.NX * cfg.NY
	s.density = make([]float64, n)
	s.energy = make([]float64, n)
	dx := (cfg.XMax - cfg.XMin) / float64(cfg.NX)
	dy := (cfg.YMax - cfg.YMin) / float64(cfg.NY)
	for j := 0; j < cfg.NY; j++ {
		for i := 0; i < cfg.NX; i++ {
			cx := cfg.XMin + (float64(i)+0.5)*dx
			cy := cfg.YMin + (float64(j)+0.5)*dy
			idx := j*cfg.NX + i
			for si, st := range cfg.States {
				if si == 0 || stateCovers(st, cx, cy, dx, dy) {
					s.density[idx] = st.Density
					s.energy[idx] = st.Energy
				}
			}
		}
	}
}

func stateCovers(st State, cx, cy, dx, dy float64) bool {
	switch st.Geom {
	case Rectangle:
		return cx >= st.XMin && cx < st.XMax && cy >= st.YMin && cy < st.YMax
	case Circle:
		ddx, ddy := cx-st.XCentre, cy-st.YCentre
		return ddx*ddx+ddy*ddy <= st.Radius*st.Radius
	case Point:
		return st.XCentre >= cx-dx/2 && st.XCentre < cx+dx/2 &&
			st.YCentre >= cy-dy/2 && st.YCentre < cy+dy/2
	default:
		return false
	}
}

// initCoefficients computes the face conduction coefficients Kx, Ky from
// density (TeaLeaf tea_leaf_common_init): the harmonic-style average
// (w_l + w_r) / (2 w_l w_r) between neighbouring cells, with insulated
// (zero-coefficient) domain boundaries.
func (s *Simulation) initCoefficients() {
	cfg := s.cfg
	nx, ny := cfg.NX, cfg.NY
	w := make([]float64, nx*ny)
	for i, d := range s.density {
		if cfg.Coefficient == RecipConductivity {
			w[i] = 1 / d
		} else {
			w[i] = d
		}
	}
	s.kx = make([]float64, (nx+1)*ny)
	s.ky = make([]float64, nx*(ny+1))
	for j := 0; j < ny; j++ {
		for i := 1; i < nx; i++ {
			l, r := w[j*nx+i-1], w[j*nx+i]
			s.kx[j*(nx+1)+i] = (l + r) / (2 * l * r)
		}
	}
	for j := 1; j < ny; j++ {
		for i := 0; i < nx; i++ {
			l, r := w[(j-1)*nx+i], w[j*nx+i]
			s.ky[j*nx+i] = (l + r) / (2 * l * r)
		}
	}
	dx := (cfg.XMax - cfg.XMin) / float64(nx)
	dy := (cfg.YMax - cfg.YMin) / float64(ny)
	s.rx = cfg.DtInit / (dx * dx)
	s.ry = cfg.DtInit / (dy * dy)
}

// buildMatrix assembles and protects the implicit operator
// A = I + rx Lx + ry Ly in the configured storage format. The matrix is
// constant over the run (density does not change), the property the
// paper's less-frequent checking exploits. With Shards > 1 the
// assembled operator is row-partitioned into bands with protected halo
// exchanges — TeaLeaf's chunk decomposition over the general sharded
// layer — and the solvers run over the composite unchanged.
func (s *Simulation) buildMatrix() error {
	cfg := s.cfg
	plain := csr.FivePoint(cfg.NX, cfg.NY, s.kx, s.ky, s.rx, s.ry)
	opCfg := op.Config{
		Scheme:        cfg.ElemScheme,
		RowPtrScheme:  cfg.RowPtrScheme,
		Backend:       cfg.CRCBackend,
		CheckInterval: cfg.CheckInterval,
	}
	m, err := shard.Build(plain, shard.Options{
		Shards:       cfg.Shards,
		Format:       cfg.Format,
		Config:       opCfg,
		VectorScheme: cfg.VectorScheme,
	})
	if err != nil {
		return err
	}
	m.SetCounters(&s.counters)
	s.matrix = m
	s.precond = nil
	// The config is normalized at New, so cfg.Precond is the effective
	// kind (pcg's implicit Jacobi included) and its state joins the
	// Reprotect lifecycle instead of being rebuilt unprotected inside
	// the solver.
	if cfg.Precond != precond.None {
		pre, err := precond.New(cfg.Precond, plain, precond.Options{
			Scheme:  cfg.ElemScheme,
			Backend: cfg.CRCBackend,
			Workers: cfg.Workers,
		})
		if err != nil {
			return err
		}
		pre.SetCounters(&s.counters)
		s.precond = pre
	}
	return nil
}

// Reprotect rebuilds every protected structure from the pristine
// application fields: the recovery action after a detected uncorrectable
// error (the alternative to checkpoint-restart the paper highlights for
// iterative solvers).
func (s *Simulation) Reprotect() error {
	return s.buildMatrix()
}

// newVec allocates a protected vector wired to the run's counters.
func (s *Simulation) newVec() *core.Vector {
	v := core.NewVector(s.cfg.NX*s.cfg.NY, s.cfg.VectorScheme)
	v.SetCounters(&s.counters)
	v.SetCRCBackend(s.cfg.CRCBackend)
	return v
}

// StepResult reports one timestep.
type StepResult struct {
	Step         int
	Iterations   int
	ResidualNorm float64
	Converged    bool
	// Counter deltas for the step.
	Checks, Corrected, Detected, Bounds uint64
	// Retried reports that the step hit an uncorrectable fault and was
	// re-run after Reprotect (RetryOnFault).
	Retried bool
	// Rollbacks and RecomputedIterations report the solver's own
	// checkpoint recovery activity within the step (Config.Recovery).
	Rollbacks            int
	RecomputedIterations int
}

// Advance performs one timestep: u = density*energy, solve
// (I + L) u' = u, energy = u'/density.
func (s *Simulation) Advance() (StepResult, error) {
	res, err := s.advanceOnce()
	if err != nil && s.cfg.RetryOnFault && solvers.IsFault(err) {
		if rerr := s.Reprotect(); rerr != nil {
			return res, fmt.Errorf("tealeaf: reprotect after fault: %w", rerr)
		}
		res, err = s.advanceOnce()
		res.Retried = true
	}
	if err == nil {
		s.step++
		res.Step = s.step
	}
	return res, err
}

func (s *Simulation) advanceOnce() (StepResult, error) {
	cfg := s.cfg
	before := s.counters.Snapshot()
	n := cfg.NX * cfg.NY

	u0 := make([]float64, n)
	for i := range u0 {
		u0[i] = s.density[i] * s.energy[i]
	}
	b := s.newVec()
	x := s.newVec()
	b.CopyFrom(u0)
	x.CopyFrom(u0) // initial guess = rhs, as TeaLeaf

	opt := solvers.Options{
		Tol:         cfg.Eps,
		RelativeTol: cfg.RelativeTol,
		MaxIter:     cfg.MaxIters,
		Workers:     cfg.Workers,
		EigenIters:  cfg.EigenIters,
		InnerSteps:  cfg.InnerSteps,
		Recovery:    cfg.Recovery,
	}
	if s.precond != nil {
		opt.Preconditioner = s.precond
	}
	op := solvers.MatrixOperator{M: s.matrix, Workers: cfg.Workers}
	sres, err := solvers.Solve(cfg.Solver, op, x, b, opt)
	out := StepResult{
		Iterations:           sres.Iterations,
		ResidualNorm:         sres.ResidualNorm,
		Converged:            sres.Converged,
		Rollbacks:            sres.Rollbacks,
		RecomputedIterations: sres.RecomputedIterations,
	}
	if err == nil && cfg.CheckInterval > 1 {
		// End-of-timestep scrub: with interval checking, errors that
		// occurred after the last full check would otherwise escape
		// (paper section VI-A-2).
		_, err = s.matrix.Scrub()
	}
	if err != nil {
		delta := s.counters.Snapshot()
		out.Checks = delta.Checks - before.Checks
		out.Corrected = delta.Corrected - before.Corrected
		out.Detected = delta.Detected - before.Detected
		out.Bounds = delta.Bounds - before.Bounds
		return out, err
	}
	if !sres.Converged {
		return out, fmt.Errorf("tealeaf: solver did not converge in %d iterations (residual %g)",
			sres.Iterations, sres.ResidualNorm)
	}

	got := make([]float64, n)
	if err := x.CopyTo(got); err != nil {
		return out, err
	}
	for i := range got {
		s.energy[i] = got[i] / s.density[i]
	}
	delta := s.counters.Snapshot()
	out.Checks = delta.Checks - before.Checks
	out.Corrected = delta.Corrected - before.Corrected
	out.Detected = delta.Detected - before.Detected
	out.Bounds = delta.Bounds - before.Bounds
	return out, nil
}

// RunResult summarises a full run.
type RunResult struct {
	Steps           []StepResult
	TotalIterations int
	Summary         FieldSummary
	Counters        core.CounterSnapshot
}

// Run advances EndStep timesteps.
func (s *Simulation) Run() (RunResult, error) {
	var out RunResult
	for i := 0; i < s.cfg.EndStep; i++ {
		sr, err := s.Advance()
		if err != nil {
			return out, err
		}
		out.Steps = append(out.Steps, sr)
		out.TotalIterations += sr.Iterations
	}
	out.Summary = s.FieldSummary()
	out.Counters = s.counters.Snapshot()
	return out, nil
}

// FieldSummary aggregates the diagnostic quantities TeaLeaf prints: cell
// volume, mass, internal energy and volume-weighted temperature.
type FieldSummary struct {
	Volume         float64
	Mass           float64
	InternalEnergy float64
	Temperature    float64
}

// FieldSummary computes the current diagnostics.
func (s *Simulation) FieldSummary() FieldSummary {
	cfg := s.cfg
	dx := (cfg.XMax - cfg.XMin) / float64(cfg.NX)
	dy := (cfg.YMax - cfg.YMin) / float64(cfg.NY)
	cellVol := dx * dy
	var out FieldSummary
	for i := range s.density {
		out.Volume += cellVol
		out.Mass += s.density[i] * cellVol
		out.InternalEnergy += s.density[i] * s.energy[i] * cellVol
		out.Temperature += s.density[i] * s.energy[i] * cellVol
	}
	return out
}
