// Command tealeaf runs the TeaLeaf heat-conduction mini-app with
// configurable ABFT protection, printing per-step solver statistics and
// the final field summary in the style of the reference implementation.
//
// Usage:
//
//	tealeaf [flags]
//	tealeaf -in tea.in
//
// Examples:
//
//	tealeaf -nx 512 -steps 5 -elements secded64 -rowptr secded64 -vectors secded64
//	tealeaf -nx 2048 -steps 5 -elements crc32c -interval 128 -crc software
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"abft/internal/core"
	"abft/internal/ecc"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/solvers"
	"abft/internal/tealeaf"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tealeaf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tealeaf", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		inFile   = fs.String("in", "", "TeaLeaf input deck (tea.in format); flags override")
		nx       = fs.Int("nx", 0, "grid cells per side (overrides deck)")
		steps    = fs.Int("steps", 0, "timesteps (overrides deck)")
		solver   = fs.String("solver", "", "solver: cg, jacobi, chebyshev, ppcg, pcg")
		pre      = fs.String("precond", "", "preconditioner: none, jacobi, bjacobi, sgs (protected like the matrix)")
		eps      = fs.Float64("eps", 0, "solver tolerance")
		relative = fs.Bool("relative", false, "measure tolerance against the initial residual")
		format   = fs.String("format", "", "matrix storage format: csr, coo, sellcs")
		elems    = fs.String("elements", "", "matrix element protection: none, sed, secded64, secded128, crc32c")
		rowptr   = fs.String("rowptr", "", "row-pointer protection scheme")
		vectors  = fs.String("vectors", "", "dense vector protection scheme")
		interval = fs.Int("interval", 0, "full matrix checks every n-th sweep")
		crc      = fs.String("crc", "", "crc32c backend: "+ecc.BackendNames)
		workers  = fs.Int("workers", 0, "kernel goroutines")
		shards   = fs.Int("shards", 0, "row-partition the operator into this many bands with protected halo exchanges")
		retry    = fs.Bool("retry", false, "reprotect and retry a step after an uncorrectable fault")
		recovery = fs.String("recovery", "", "solver recovery policy for faults in dynamic state: off, rollback, restart")
		ckpt     = fs.Int("ckpt-interval", 0, "rollback checkpoint cadence in iterations (0 adapts to the fault rate)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := tealeaf.DefaultConfig()
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			return err
		}
		cfg, err = tealeaf.ParseInput(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if *nx > 0 {
		cfg.NX, cfg.NY = *nx, *nx
	}
	if *steps > 0 {
		cfg.EndStep = *steps
	}
	if *solver != "" {
		kind, err := solvers.ParseKind(*solver)
		if err != nil {
			return err
		}
		cfg.Solver = kind
	}
	if *pre != "" {
		kind, err := precond.ParseKind(*pre)
		if err != nil {
			return err
		}
		cfg.Precond = kind
	}
	if *eps > 0 {
		cfg.Eps = *eps
	}
	cfg.RelativeTol = cfg.RelativeTol || *relative
	if *format != "" {
		f, err := op.ParseFormat(*format)
		if err != nil {
			return err
		}
		cfg.Format = f
	}
	if err := setScheme(*elems, &cfg.ElemScheme); err != nil {
		return err
	}
	if err := setScheme(*rowptr, &cfg.RowPtrScheme); err != nil {
		return err
	}
	if err := setScheme(*vectors, &cfg.VectorScheme); err != nil {
		return err
	}
	if *interval > 0 {
		cfg.CheckInterval = *interval
	}
	if *crc != "" {
		b, err := ecc.ParseBackend(*crc)
		if err != nil {
			return err
		}
		cfg.CRCBackend = b
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *shards > 0 {
		cfg.Shards = *shards
	}
	cfg.RetryOnFault = cfg.RetryOnFault || *retry
	if *recovery != "" {
		pol, err := solvers.ParseRecovery(*recovery)
		if err != nil {
			return err
		}
		cfg.Recovery.Policy = pol
	}
	if *ckpt > 0 {
		cfg.Recovery.Interval = *ckpt
	}
	// Report the effective configuration (pcg's implicit Jacobi
	// preconditioner included), exactly what the simulation will run.
	cfg = cfg.Normalized()

	fmt.Fprintf(stdout, "TeaLeaf (ABFT reproduction)\n")
	fmt.Fprintf(stdout, "  grid %dx%d, %d steps, dt %g, solver %v, precond %v\n",
		cfg.NX, cfg.NY, cfg.EndStep, cfg.DtInit, cfg.Solver, cfg.Precond)
	fmt.Fprintf(stdout, "  protection: format=%v elements=%v rowptr=%v vectors=%v interval=%d crc=%v workers=%d shards=%d recovery=%v\n",
		cfg.Format, cfg.ElemScheme, cfg.RowPtrScheme, cfg.VectorScheme, cfg.CheckInterval,
		cfg.CRCBackend, cfg.Workers, cfg.Shards, cfg.Recovery.Policy)

	sim, err := tealeaf.New(cfg)
	if err != nil {
		return err
	}
	start := time.Now()
	for s := 0; s < cfg.EndStep; s++ {
		stepStart := time.Now()
		sr, err := sim.Advance()
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "step %4d: %5d iterations, residual %.3e, %8.3fs",
			sr.Step, sr.Iterations, sr.ResidualNorm, time.Since(stepStart).Seconds())
		if sr.Corrected > 0 || sr.Detected > 0 || sr.Retried || sr.Rollbacks > 0 {
			fmt.Fprintf(stdout, "  [corrected=%d detected=%d retried=%v rollbacks=%d recomputed=%d]",
				sr.Corrected, sr.Detected, sr.Retried, sr.Rollbacks, sr.RecomputedIterations)
		}
		fmt.Fprintln(stdout)
	}
	elapsed := time.Since(start)

	sum := sim.FieldSummary()
	fmt.Fprintf(stdout, "\nfield summary\n")
	fmt.Fprintf(stdout, "  volume          %.6e\n", sum.Volume)
	fmt.Fprintf(stdout, "  mass            %.6e\n", sum.Mass)
	fmt.Fprintf(stdout, "  internal energy %.6e\n", sum.InternalEnergy)
	fmt.Fprintf(stdout, "  temperature     %.6e\n", sum.Temperature)
	snap := sim.Counters().Snapshot()
	fmt.Fprintf(stdout, "\nabft: %v\n", snap)
	fmt.Fprintf(stdout, "wall clock %.3fs\n", elapsed.Seconds())
	return nil
}

func setScheme(s string, dst *core.Scheme) error {
	if s == "" {
		return nil
	}
	v, err := core.ParseScheme(s)
	if err != nil {
		return err
	}
	*dst = v
	return nil
}
