package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/shard"
	"abft/internal/solvers"
)

func flipFloatBits(x float64, mask uint64) float64 {
	return math.Float64frombits(math.Float64bits(x) ^ mask)
}

// CampaignConfig describes an injection campaign: Trials repetitions of
// "corrupt a fresh structure with Bits random flips, check it, classify".
type CampaignConfig struct {
	// Scheme is the protection under test.
	Scheme core.Scheme
	// Structure selects vectors, matrix elements or row pointers.
	Structure core.Structure
	// Format is the matrix storage format under test (matrix structures
	// only; vector campaigns ignore it). The zero value is CSR.
	Format op.Format
	// Bits is the number of distinct flips per trial.
	Bits int
	// Trials is the number of repetitions.
	Trials int
	// Seed makes the campaign reproducible.
	Seed int64
	// SameCodeword confines each trial's flips to a single codeword,
	// measuring the per-codeword capability (the paper's nECmED budget);
	// otherwise flips scatter across the whole structure.
	SameCodeword bool
	// BurstWindow, when positive, replaces the Bits random flips with a
	// random burst pattern confined to this many contiguous bits within
	// one codeword (vector campaigns only). CRC32C guarantees detection
	// of bursts up to 32 bits.
	BurstWindow int
	// Size scales the structure (vector length or grid side; default 32).
	Size int
	// Matrix, when non-nil, replaces the generated five-point stencil as
	// the matrix campaigns' operator — the path for ingested Matrix
	// Market operators (cmd/faultinject -matrix). Size is ignored for
	// matrix structures when set.
	Matrix *csr.Matrix
	// Shards, when above 1, row-partitions the operator: matrix
	// campaigns flip bits inside one randomly chosen shard's local
	// matrix, and the StructHalo structure becomes available, striking
	// a random shard's resident halo-extended vector between the
	// scatter and exchange phases of a product.
	Shards int
	// Precond selects the preconditioner whose resident setup product
	// StructPrecond campaigns corrupt (the protected inverse-diagonal
	// or inverse-block state of internal/precond). Jacobi when unset.
	Precond precond.Kind
	// Recovery selects the recovery policy StructSolverState campaigns
	// solve under: off measures how often corrupted live iteration
	// vectors abort the solve, rollback and restart measure how often
	// the checkpoint controller turns those aborts into recoveries.
	Recovery solvers.RecoveryPolicy
	// CheckpointInterval overrides the rollback checkpoint cadence
	// (zero keeps the solver's adaptive default).
	CheckpointInterval int
	// Phase selects which phase of a solve the trial strikes. The empty
	// default strikes resident structures as selected by Structure;
	// PhaseInner instead strikes the live plain-scratch state of a
	// selective-reliability FGMRES solve's unverified inner iteration
	// (through solvers.Options.InnerHook) — the campaign that measures
	// the selective-reliability claim: inner faults must be absorbed by
	// the verified outer iteration, never surface as SDC.
	Phase string
}

// PhaseInner names the unverified inner phase of a selective
// FGMRES solve as a campaign strike target.
const PhaseInner = "inner"

// CampaignResult aggregates trial outcomes.
type CampaignResult struct {
	Config    CampaignConfig
	Benign    int
	Corrected int
	Detected  int
	SDC       int
	Recovered int
}

// Total returns the number of classified trials.
func (r CampaignResult) Total() int {
	return r.Benign + r.Corrected + r.Detected + r.SDC + r.Recovered
}

// Rate returns the fraction of trials with the given outcome.
func (r CampaignResult) Rate(o Outcome) float64 {
	var n int
	switch o {
	case Benign:
		n = r.Benign
	case Corrected:
		n = r.Corrected
	case Detected:
		n = r.Detected
	case SDC:
		n = r.SDC
	case Recovered:
		n = r.Recovered
	}
	if r.Total() == 0 {
		return 0
	}
	return float64(n) / float64(r.Total())
}

func (r CampaignResult) String() string {
	return fmt.Sprintf("%s/%s/%s bits=%d same-codeword=%v: benign=%d corrected=%d detected=%d sdc=%d recovered=%d",
		r.Config.Format, r.Config.Scheme, r.Config.Structure, r.Config.Bits, r.Config.SameCodeword,
		r.Benign, r.Corrected, r.Detected, r.SDC, r.Recovered)
}

func (r *CampaignResult) add(o Outcome) {
	switch o {
	case Benign:
		r.Benign++
	case Corrected:
		r.Corrected++
	case Detected:
		r.Detected++
	case SDC:
		r.SDC++
	case Recovered:
		r.Recovered++
	}
}

// Run executes the campaign: it picks the trial kind once, then builds
// and runs Trials fresh trials of it from one injector, so a campaign's
// tables depend on its configuration and seed alone.
func Run(cfg CampaignConfig) (CampaignResult, error) {
	if cfg.Trials <= 0 {
		cfg.Trials = 100
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 1
	}
	if cfg.Size <= 0 {
		cfg.Size = 32
	}
	var kind func(CampaignConfig, *Injector) (*trial, error)
	switch {
	case cfg.Phase != "" && cfg.Phase != PhaseInner:
		return CampaignResult{Config: cfg}, fmt.Errorf("faults: unknown phase %q (choices: %s)", cfg.Phase, PhaseInner)
	case cfg.Phase == PhaseInner, cfg.Structure == core.StructSolverState:
		kind = solveTrial
	case cfg.Structure == core.StructVector:
		kind = vectorTrial
	case cfg.Structure == core.StructHalo:
		kind = haloTrial
	case cfg.Structure == core.StructPrecond:
		kind = precondTrial
	default:
		kind = matrixTrial
	}
	return runKind(cfg, kind)
}

// runKind runs cfg.Trials trials of kind from one injector seeded with
// cfg.Seed; Run has settled cfg's defaults.
func runKind(cfg CampaignConfig, kind func(CampaignConfig, *Injector) (*trial, error)) (CampaignResult, error) {
	res := CampaignResult{Config: cfg}
	in := NewInjector(cfg.Seed)
	for i := 0; i < cfg.Trials; i++ {
		o, err := runTrial(kind(cfg, in))
		if err != nil {
			return res, err
		}
		res.add(o)
	}
	return res, nil
}

// A trial is one campaign repetition. Its kind's constructor builds a
// fresh structure and draws the trial's input; runTrial then takes it
// through the steps every kind shares: a fault-free reference run of
// result, strike, a second run of result that observes the strike,
// classify. Every random draw of a trial happens in that order.
type trial struct {
	// result is the checked read, product or solve the trial observes;
	// failed reports a fault it caught (or an honest non-convergence),
	// err a campaign that cannot run.
	result func() (got []float64, failed bool, err error)
	// strike puts the trial's flips into the structure, or arms the hook
	// that puts them there while result runs.
	strike func() error
	// tol is the comparison tolerance relative to the reference; zero
	// compares exactly.
	tol float64
	// recovered, when set, reports that a recovery mechanism stood
	// between the strike and the result.
	recovered func() bool
	// c is attached to the struck structure and counts its corrections.
	c core.Counters
}

// runTrial runs a freshly built trial (or returns its build error).
func runTrial(t *trial, err error) (Outcome, error) {
	if err != nil {
		return 0, err
	}
	want, failed, err := t.result()
	if err == nil && failed {
		err = errors.New("a check failed")
	}
	if err != nil {
		return 0, fmt.Errorf("faults: fault-free reference: %w", err)
	}
	if err := t.strike(); err != nil {
		return 0, err
	}
	got, failed, err := t.result()
	if err != nil {
		return 0, err
	}
	recovered := t.recovered != nil && t.recovered()
	return classify(failed, differs(got, want, t.tol), recovered, t.c.Corrected() > 0), nil
}

// classify is the campaign outcome order (DESIGN.md section 7): a fault
// the checks caught is Detected whatever else happened; a wrong result
// that passed them is SDC; a right one is Recovered when a recovery
// mechanism produced it, Corrected when a codeword was repaired, and
// Benign otherwise.
func classify(failed, unequal, recovered, corrected bool) Outcome {
	switch {
	case failed:
		return Detected
	case unequal:
		return SDC
	case recovered:
		return Recovered
	case corrected:
		return Corrected
	}
	return Benign
}

// differs reports whether got departs from want: exactly when tol is
// zero, by more than tol relative to want otherwise.
func differs(got, want []float64, tol float64) bool {
	if len(got) != len(want) {
		return true
	}
	for i, w := range want {
		if tol == 0 && got[i] != w || math.Abs(got[i]-w) > tol*(1+math.Abs(w)) {
			return true
		}
	}
	return false
}

// normals draws a trial input's seed from the injector and returns n
// standard normal samples of it.
func normals(in *Injector, n int) []float64 {
	rng := rand.New(rand.NewSource(in.rng.Int63()))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

// strike puts the trial's flips into a protected vector: cfg.Bits random
// flips, or one BurstWindow burst. The random flips are drawn even when
// the burst replaces them.
func strike(cfg CampaignConfig, in *Injector, v *core.Vector) {
	flips := in.RandomVectorFlips(v, cfg.Bits, cfg.SameCodeword)
	if cfg.BurstWindow > 0 {
		flips = in.BurstVectorFlips(v, cfg.BurstWindow)
	}
	for _, f := range flips {
		FlipVectorBit(v, f)
	}
}

// strikeMatrix puts cfg.Bits flips into the target structure of m.
func strikeMatrix(cfg CampaignConfig, in *Injector, m core.ProtectedMatrix, target MatrixTarget) error {
	flips := in.RandomMatrixFlips(m, target, cfg.Bits, cfg.SameCodeword)
	if flips == nil {
		return fmt.Errorf("faults: format %v has no %v structure", cfg.Format, target)
	}
	for _, f := range flips {
		FlipMatrixBit(m, target, f)
	}
	return nil
}

// pickTarget selects which stored structure of a matrix receives the
// trial's flips.
func pickTarget(cfg CampaignConfig, in *Injector) MatrixTarget {
	if cfg.Structure == core.StructRowPtr {
		return TargetRowPtr
	}
	if in.rng.Intn(3) == 0 {
		return TargetCols
	}
	return TargetValues
}

// campaignMatrix returns the campaign's source operator: the ingested
// matrix when configured, otherwise a generated one — a nonsymmetric
// convection-diffusion operator for the inner phase, whose natural
// solver is FGMRES, and a five-point stencil for everything else.
func campaignMatrix(cfg CampaignConfig) *csr.Matrix {
	if cfg.Matrix != nil {
		return cfg.Matrix
	}
	side := max(cfg.Size, 4)
	if cfg.Phase == PhaseInner {
		return csr.ConvectionDiffusion2D(side, side, 1.5, 0.5)
	}
	return csr.Laplacian2D(side, side)
}

// newOperator builds the campaign operator over plain in the configured
// format, row-partitioned when cfg.Shards > 1, its matrix under the
// scheme under test when protect is set and unprotected otherwise. A
// sharded operator's resident vectors always carry the scheme.
func newOperator(cfg CampaignConfig, plain *csr.Matrix, protect bool) (core.ProtectedMatrix, error) {
	var conf op.Config
	if protect {
		conf.Scheme, conf.RowPtrScheme = cfg.Scheme, cfg.Scheme
	}
	return shard.Build(plain, shard.Options{
		Shards: cfg.Shards, Format: cfg.Format, Config: conf, VectorScheme: cfg.Scheme,
	})
}

// product returns a result step observing apply's output into a plain
// vector of n rows.
func product(n int, apply func(dst *core.Vector) error) func() ([]float64, bool, error) {
	return func() ([]float64, bool, error) {
		dst := core.NewVector(n, core.None)
		got := make([]float64, n)
		return got, apply(dst) != nil || dst.CopyTo(got) != nil, nil
	}
}

// vectorTrial strikes a fresh protected vector and reads it back. Values
// intact without a correction are Benign: the flips landed in padding
// or cancelled out of the observable data.
func vectorTrial(cfg CampaignConfig, in *Injector) (*trial, error) {
	v := core.VectorFromSlice(normals(in, cfg.Size), cfg.Scheme)
	t := &trial{strike: func() error { strike(cfg, in, v); return nil }}
	v.SetCounters(&t.c)
	t.result = func() ([]float64, bool, error) {
		got := make([]float64, cfg.Size)
		return got, v.CopyTo(got) != nil, nil
	}
	return t, nil
}

// matrixTrial strikes one stored structure of a fresh protected matrix
// of the configured format — of one randomly chosen shard's local
// matrix when the operator is sharded — and observes a full scrub plus
// the decoded matrix.
func matrixTrial(cfg CampaignConfig, in *Injector) (*trial, error) {
	m, err := newOperator(cfg, campaignMatrix(cfg), true)
	if err != nil {
		return nil, err
	}
	d, ok := m.(interface{ ToCSR() (*csr.Matrix, error) })
	if !ok {
		return nil, fmt.Errorf("faults: format %v does not decode to CSR", cfg.Format)
	}
	t := &trial{}
	m.SetCounters(&t.c)
	t.result = func() ([]float64, bool, error) {
		if _, err := m.Scrub(); err != nil {
			return nil, true, nil
		}
		a, err := d.ToCSR()
		if err != nil {
			return nil, true, nil
		}
		// One slice of dimensions, row pointers, columns and values.
		got := []float64{float64(a.Rows()), float64(a.NNZ())}
		for _, w := range a.RowPtr {
			got = append(got, float64(w))
		}
		for _, w := range a.Cols {
			got = append(got, float64(w))
		}
		return append(got, a.Vals...), false, nil
	}
	t.strike = func() error {
		target, struck := pickTarget(cfg, in), m
		if o, ok := m.(*shard.Operator); ok {
			struck = o.Shard(in.rng.Intn(o.Shards()))
		}
		return strikeMatrix(cfg, in, struck, target)
	}
	return t, nil
}

// haloTrial strikes a random shard's resident halo landing vector
// between the exchange and local phases of a sharded product — after
// the pack has re-encoded the values that crossed the shard boundary,
// before the band reads them — and observes the product. The scheme
// under test protects the landing vectors; the caller's x and the shard
// matrices run unprotected so every detection and correction is
// attributable to the band's read of its halo.
func haloTrial(cfg CampaignConfig, in *Injector) (*trial, error) {
	if cfg.Shards < 2 {
		return nil, fmt.Errorf("faults: halo campaigns need Shards >= 2 (got %d)", cfg.Shards)
	}
	m, err := newOperator(cfg, campaignMatrix(cfg), false)
	if err != nil {
		return nil, err
	}
	o := m.(*shard.Operator)
	x := core.VectorFromSlice(normals(in, o.Cols()), core.None)
	t := &trial{result: product(o.Rows(), func(dst *core.Vector) error { return o.Apply(dst, x, 1) })}
	o.SetCounters(&t.c)
	t.strike = func() error {
		o.SetPhaseHook(func(p shard.Phase) {
			if p == shard.PhaseExchange {
				strike(cfg, in, o.Local(in.rng.Intn(o.Shards())))
			}
		})
		return nil
	}
	return t, nil
}

// precondTrial strikes the resident setup product of a fresh protected
// preconditioner — the state Elliott/Hoemmen/Mueller identify as the
// hiding place for silent corruption in opaque preconditioners — between
// two applications, exactly when resident preconditioner memory is
// exposed.
func precondTrial(cfg CampaignConfig, in *Injector) (*trial, error) {
	kind := cfg.Precond
	if kind == precond.None {
		kind = precond.Jacobi
	}
	p, err := precond.New(kind, campaignMatrix(cfg), precond.Options{Scheme: cfg.Scheme})
	if err != nil {
		return nil, err
	}
	return precondStrike(cfg, in, p), nil
}

// precondStrike is the trial of a built preconditioner p: a fresh input
// r, z = M^-1 r observed, the strike into p's resident setup product.
func precondStrike(cfg CampaignConfig, in *Injector, p precond.Preconditioner) *trial {
	r := core.VectorFromSlice(normals(in, p.Rows()), core.None)
	t := &trial{result: product(p.Rows(), func(dst *core.Vector) error { return p.Apply(dst, r) })}
	p.SetCounters(&t.c)
	// The injection surface is the whole setup product: the protected
	// state vectors plus, for Gauss-Seidel, the protected matrix copy its
	// sweeps stream (by far its dominant resident state).
	t.strike = func() error {
		state := p.RawState()
		mp, hasMatrix := p.(interface{ Matrix() *core.Matrix })
		surfaces := len(state)
		if hasMatrix {
			surfaces++
		}
		if pick := in.rng.Intn(surfaces); pick < len(state) {
			strike(cfg, in, state[pick])
			return nil
		}
		return strikeMatrix(cfg, in, mp.Matrix(), pickTarget(cfg, in))
	}
	return t
}

// solveTrial strikes a solve in flight and compares its solution with a
// fault-free solve of the identical configuration, at a threshold well
// above the solver tolerance and the checkpoint scheme's masking
// perturbation but far below any solution-visible corruption.
//
// The solverstate structure strikes a live CG iteration vector — x, r or
// p, the dynamic state no resident protected structure covers — early in
// the solve, under the configured recovery policy. The scheme protects
// the solve's vectors and the operator runs unprotected, so every
// detection, correction and rollback is the dynamic-state paths'; a
// right answer after a rollback is Recovered.
//
// The inner phase strikes the one deliberately unprotected place in a
// selective-reliability solve: the plain scratch of FGMRES's unverified
// inner iteration, at one random hook firing early in the solve. Matrix
// and vectors carry the scheme, so the inner phase streams masked
// codeword payloads while the outer iteration stays fully verified. No
// detection is possible inside the unverified phase, so a struck solve
// that still converges to the reference was absorbed by the verified
// outer iteration and is Recovered too; the SDC is what the design must
// not produce.
func solveTrial(cfg CampaignConfig, in *Injector) (*trial, error) {
	if cfg.Matrix == nil && cfg.Size > 32 {
		cfg.Size = 32 // clamp generated operators: each trial is a full solve
	}
	inner := cfg.Phase == PhaseInner
	m, err := newOperator(cfg, campaignMatrix(cfg), inner)
	if err != nil {
		return nil, err
	}
	a := solvers.MatrixOperator{M: m, Workers: 1}
	bs := normals(in, m.Rows())
	opt := solvers.Options{
		Tol: 1e-8, RelativeTol: true, Workers: 1,
		Recovery: solvers.Recovery{Policy: cfg.Recovery, Interval: cfg.CheckpointInterval},
	}
	solve := solvers.CG
	if inner {
		opt.Reliability, solve = solvers.ReliabilitySelective, solvers.FGMRES
	}
	var (
		res    solvers.Result
		struck bool
	)
	t := &trial{tol: 1e-6}
	t.result = func() ([]float64, bool, error) {
		x := core.NewVector(len(bs), cfg.Scheme)
		b := core.VectorFromSlice(bs, cfg.Scheme)
		for _, v := range []*core.Vector{x, b} {
			v.SetCounters(&t.c)
		}
		var err error
		if res, err = solve(a, x, b, opt); err != nil && !solvers.IsFault(err) {
			return nil, false, err
		}
		// A non-convergence (recomputed iterations can exhaust a tight
		// budget) is honestly reported, so nothing silent happened.
		got := make([]float64, len(bs))
		return got, err != nil || !res.Converged || x.CopyTo(got) != nil, nil
	}
	t.recovered = func() bool { return res.Rollbacks > 0 || inner && struck }
	t.strike = func() error {
		if inner {
			strikeAt, calls := in.rng.Intn(4), 0
			opt.InnerHook = func(_, _, _ int, z []float64) {
				if !struck && calls == strikeAt {
					struck = true
					for i := 0; i < cfg.Bits; i++ {
						w := in.rng.Intn(len(z))
						z[w] = flipFloatBits(z[w], 1<<uint(in.rng.Intn(64)))
					}
				}
				calls++
			}
			return nil
		}
		strikeAt := 1 + in.rng.Intn(4)
		opt.StateHook = func(it int, live []*core.Vector) {
			if !struck && it == strikeAt {
				struck = true
				strike(cfg, in, live[in.rng.Intn(len(live))])
			}
		}
		return nil
	}
	return t, nil
}
