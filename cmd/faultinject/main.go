// Command faultinject runs fault-injection campaigns against the ABFT
// schemes and prints the outcome distribution per storage format, scheme,
// structure and flip count — the experimental verification of the paper's
// section IV capability claims (SECDED corrects 1 and detects 2 flips per
// codeword; CRC32C detects up to 5 at Hamming distance 6 and corrects
// 1-2), extended across the protected-operator layer's formats.
//
// Usage:
//
//	faultinject                             # the full capability matrix (CSR)
//	faultinject -format coo                 # inject into COO storage
//	faultinject -format all                 # sweep csr, coo and sellcs
//	faultinject -scheme crc32c -bits 5 -trials 1000
//	faultinject -structure vector -scatter
//	faultinject -shards 4                   # strike one shard of a sharded operator
//	faultinject -shards 4 -structure halo   # corrupt resident halo buffers mid-product
//	faultinject -structure precond -precond sgs  # corrupt resident preconditioner state
//	faultinject -recovery rollback          # corrupt live solver vectors mid-solve
//	faultinject -structure solverstate -recovery restart -shards 4
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"abft/internal/core"
	"abft/internal/csr"
	"abft/internal/faults"
	"abft/internal/mm"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/solvers"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultinject:", err)
		os.Exit(1)
	}
}

func parseFormats(s string) ([]op.Format, error) {
	if s == "all" {
		return op.Formats, nil
	}
	var out []op.Format
	for _, name := range strings.Split(s, ",") {
		f, err := op.ParseFormat(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faultinject", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		format    = fs.String("format", "csr", "matrix storage formats: csr, coo, sellcs, all, or a comma list")
		scheme    = fs.String("scheme", "", "restrict to one scheme (sed, secded64, secded128, crc32c)")
		structure = fs.String("structure", "", "restrict to one structure (vector, elements, rowptr, halo, precond, solverstate)")
		bits      = fs.Int("bits", 0, "restrict to one flip count (default sweep 1..5)")
		trials    = fs.Int("trials", 400, "trials per configuration")
		seed      = fs.Int64("seed", 1, "campaign seed")
		scatter   = fs.Bool("scatter", false, "scatter flips across the structure instead of one codeword")
		size      = fs.Int("size", 64, "structure size (vector length or grid side)")
		matrix    = fs.String("matrix", "", "MatrixMarket file to inject into (matrix structures; default: generated stencil)")
		shards    = fs.Int("shards", 0, "row-partition matrix campaigns across this many shards (>= 2 also enables the halo structure)")
		pre       = fs.String("precond", "", "preconditioner whose protected state the precond structure corrupts: jacobi, bjacobi, sgs (setting it also enables the precond structure)")
		rec       = fs.String("recovery", "", "solver recovery policy solverstate campaigns run under: off, rollback, restart (setting it also enables the solverstate structure)")
		ckpt      = fs.Int("ckpt-interval", 0, "rollback checkpoint cadence for solverstate campaigns (0 adapts)")
		phase     = fs.String("phase", "", "strike a solve phase instead of a resident structure: inner (selective FGMRES's unverified inner solve)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards < 0 {
		return fmt.Errorf("shards %d must be >= 0", *shards)
	}

	formats, err := parseFormats(*format)
	if err != nil {
		return err
	}
	var plain *csr.Matrix
	if *matrix != "" {
		plain, err = mm.ReadFile(*matrix)
		if err != nil {
			return err
		}
	}
	schemes := core.ProtectingSchemes
	if *scheme != "" {
		s, err := core.ParseScheme(*scheme)
		if err != nil {
			return err
		}
		schemes = []core.Scheme{s}
	}
	preKind := precond.None
	if *pre != "" {
		var err error
		if preKind, err = precond.ParseKind(*pre); err != nil {
			return err
		}
	}
	recovery := solvers.RecoveryOff
	solverState := *rec != ""
	if solverState {
		var err error
		if recovery, err = solvers.ParseRecovery(*rec); err != nil {
			return err
		}
	}
	structures := []core.Structure{core.StructVector, core.StructElements, core.StructRowPtr}
	if *shards > 1 {
		structures = append(structures, core.StructHalo)
	}
	if preKind != precond.None {
		structures = append(structures, core.StructPrecond)
	}
	if solverState {
		structures = append(structures, core.StructSolverState)
	}
	if *structure != "" {
		st, err := core.ParseStructure(*structure)
		if err != nil {
			return err
		}
		if st == core.StructHalo && *shards < 2 {
			return fmt.Errorf("the halo structure needs -shards >= 2 (got %d)", *shards)
		}
		if st == core.StructPrecond && preKind == precond.None {
			preKind = precond.Jacobi
		}
		structures = []core.Structure{st}
	}
	bitCounts := []int{1, 2, 3, 4, 5}
	if *bits > 0 {
		bitCounts = []int{*bits}
	}

	mode := "same-codeword"
	if *scatter {
		mode = "scattered"
	}
	if *shards > 1 {
		mode = fmt.Sprintf("%s, matrix campaigns over %d shards", mode, *shards)
	}
	if plain != nil {
		fmt.Fprintf(stdout, "fault injection: %d trials per configuration, %s flips, matrix %s (%dx%d, %d entries)\n\n",
			*trials, mode, *matrix, plain.Rows(), plain.Cols32(), plain.NNZ())
	} else {
		fmt.Fprintf(stdout, "fault injection: %d trials per configuration, %s flips, size %d\n\n",
			*trials, mode, *size)
	}
	header := fmt.Sprintf("%-7s %-11s %-11s %5s %9s %10s %10s %10s %8s %8s",
		"format", "scheme", "structure", "flips", "benign", "corrected", "detected", "recovered", "sdc", "sdc rate")
	fmt.Fprintln(stdout, header)
	fmt.Fprintln(stdout, strings.Repeat("-", len(header)))

	if *phase != "" {
		if *phase != faults.PhaseInner {
			return fmt.Errorf("unknown phase %q (choices: %s)", *phase, faults.PhaseInner)
		}
		// Phase campaigns strike a solve in flight, not a resident
		// structure: one row per format/scheme/flip-count, labelled with
		// the phase, and no per-format totals or footer.
		structures = []core.Structure{core.StructSolverState}
	}

	tallies := map[op.Format]faults.CampaignResult{}
	for _, st := range structures {
		for _, f := range formats {
			if (st == core.StructVector || st == core.StructPrecond) && f != formats[0] {
				continue // vectors and preconditioner state have no storage format; run once
			}
			if st == core.StructRowPtr && f == op.SELLCS {
				fmt.Fprintf(stdout, "%-7s %-11s %-11s        (skipped: sell-c-sigma has no protected auxiliary structure)\n",
					f, "-", st)
				continue
			}
			fname, sname := f.String(), st.String()
			if *phase != "" {
				sname = *phase
			}
			if st == core.StructVector {
				fname = "-"
			}
			if st == core.StructPrecond {
				fname = preKind.String()
			}
			for _, s := range schemes {
				for _, b := range bitCounts {
					res, err := faults.Run(faults.CampaignConfig{
						Scheme:             s,
						Structure:          st,
						Phase:              *phase,
						Format:             f,
						Bits:               b,
						Trials:             *trials,
						Seed:               *seed,
						SameCodeword:       !*scatter,
						Size:               *size,
						Matrix:             plain,
						Shards:             *shards,
						Precond:            preKind,
						Recovery:           recovery,
						CheckpointInterval: *ckpt,
					})
					if err != nil {
						return err
					}
					if st != core.StructVector && st != core.StructPrecond && st != core.StructSolverState {
						tl := tallies[f]
						tl.Benign += res.Benign
						tl.Corrected += res.Corrected
						tl.Detected += res.Detected
						tl.SDC += res.SDC
						tallies[f] = tl
					}
					fmt.Fprintf(stdout, "%-7s %-11s %-11s %5d %9d %10d %10d %10d %8d %7.1f%%\n",
						fname, s, sname, b, res.Benign, res.Corrected, res.Detected, res.Recovered,
						res.SDC, 100*res.Rate(faults.SDC))
				}
			}
		}
	}
	if *phase != "" {
		return nil
	}

	if len(tallies) > 0 {
		fmt.Fprintln(stdout, "\nper-format matrix campaign totals:")
		fmt.Fprintf(stdout, "%-7s %9s %10s %10s %8s %16s\n",
			"format", "benign", "corrected", "detected", "sdc", "handled rate")
		for _, f := range formats {
			tl, ok := tallies[f]
			if !ok {
				continue
			}
			handled := 0.0
			if total := tl.Total(); total > 0 {
				handled = 100 * float64(tl.Corrected+tl.Detected) / float64(total)
			}
			fmt.Fprintf(stdout, "%-7s %9d %10d %10d %8d %15.1f%%\n",
				f, tl.Benign, tl.Corrected, tl.Detected, tl.SDC, handled)
		}
	}

	if solverState {
		fmt.Fprintf(stdout, "\nsolverstate campaigns solved under recovery=%v (recovered = DUE rolled back to the correct answer)\n", recovery)
	}
	fmt.Fprintln(stdout, "\npaper section IV expectations (flips within one codeword):")
	fmt.Fprintln(stdout, "  sed:       detects odd flip counts, corrects none, misses even counts")
	fmt.Fprintln(stdout, "  secded:    corrects 1, detects 2; 3+ may mis-correct")
	fmt.Fprintln(stdout, "  crc32c:    corrects 1-2, detects up to 5 (HD=6); no SDC below 6 flips")
	return nil
}
