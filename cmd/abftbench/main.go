// Command abftbench regenerates the paper's evaluation figures on the
// host platform: per-scheme runtime overheads for CSR element, row-pointer
// and dense vector protection (Figures 4, 5, 9), check-interval sweeps
// (Figures 6-8), the combined full-protection overhead compared with the
// paper's 8.1 percent hardware-ECC reference, the convergence perturbation
// study and the hardware-vs-software CRC32C comparison.
//
// Every overhead is the same TeaLeaf CG run at scheme none against the
// protected run, each timed as the fastest of -runs repetitions with a
// garbage collection before each. Layer costs and the protected-over-plain
// headline live in the repo benchmark (BENCHMARK.json, benchmark/run.sh).
//
// Usage:
//
//	abftbench -fig all
//	abftbench -fig 4 -nx 512 -steps 5 -runs 5
//	abftbench -fig 8 -maxexp 7
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "abftbench:", err)
		os.Exit(1)
	}
}

// figure is one -fig choice: it measures and prints itself.
type figure struct {
	name string
	run  func(c config, w io.Writer) error
}

// figures lists the -fig choices in print order.
var figures = []figure{
	{"4", rowsFigure("Figure 4: CSR element protection overhead", fig4)},
	{"5", rowsFigure("Figure 5: row-pointer protection overhead", fig5)},
	{"6", seriesFigure("Figure 6: full-CSR SED overhead vs check interval", fig6)},
	{"7", seriesFigure("Figure 7: full-CSR SECDED64 overhead vs check interval", fig7)},
	{"8", seriesFigure("Figure 8: full-CSR CRC32C (software) overhead vs check interval", fig8)},
	{"9", rowsFigure("Figure 9: dense vector protection overhead", fig9)},
	{"full", func(c config, w io.Writer) error {
		r, err := fullProtection(c)
		if err != nil {
			return err
		}
		printRows(w, "Full protection (section VII-B)", []row{r})
		fmt.Fprintf(w, "paper reference: %.1f%% hardware-ECC overhead (NVIDIA K40), %.0f%% software target\n\n",
			hardwareECCTargetPct, 11.0)
		return nil
	}},
	{"conv", func(c config, w io.Writer) error {
		rows, err := convergence(c)
		if err != nil {
			return err
		}
		printConvergence(w, rows)
		return nil
	}},
	{"crc", func(_ config, w io.Writer) error {
		printCRC(w, crcThroughput())
		return nil
	}},
}

func rowsFigure(title string, fig func(config) ([]row, error)) func(config, io.Writer) error {
	return func(c config, w io.Writer) error {
		rows, err := fig(c)
		if err != nil {
			return err
		}
		printRows(w, title, rows)
		return nil
	}
}

func seriesFigure(title string, fig func(config) (series, error)) func(config, io.Writer) error {
	return func(c config, w io.Writer) error {
		s, err := fig(c)
		if err != nil {
			return err
		}
		printSeries(w, title, s)
		return nil
	}
}

// figureChoices is the -fig vocabulary, "all" included.
func figureChoices() string {
	names := make([]string, 0, len(figures)+1)
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// selectFigures resolves a comma-separated -fig list; a name outside the
// table is an error that lists the choices.
func selectFigures(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		known := false
		for _, f := range figures {
			if name == "all" || name == f.name {
				want[f.name], known = true, true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown figure %q (choices: %s)", name, figureChoices())
		}
	}
	return want, nil
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("abftbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var c config
	fig := fs.String("fig", "all", "figures to regenerate, comma-separated: "+figureChoices())
	fs.IntVar(&c.nx, "nx", 128, "grid cells per side (paper: 2048)")
	fs.IntVar(&c.steps, "steps", 2, "timesteps per run (paper: 5)")
	fs.IntVar(&c.runs, "runs", 3, "repetitions per configuration; the fastest is reported (paper: mean of 5)")
	fs.Float64Var(&c.eps, "eps", 1e-8, "solver tolerance (relative)")
	fs.IntVar(&c.workers, "workers", 1, "kernel goroutines")
	fs.IntVar(&c.maxExp, "maxexp", 7, "largest interval exponent for figures 6-8 (2^n)")
	quiet := fs.Bool("quiet", false, "suppress progress output")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want, err := selectFigures(*fig)
	if err != nil {
		return err
	}
	if c.runs < 1 {
		return fmt.Errorf("-runs %d: need at least one repetition", c.runs)
	}
	if !*quiet {
		c.log = os.Stderr
	}

	fmt.Fprintf(stdout, "abftbench: grid %dx%d, %d steps, fastest of %d runs, eps %g\n",
		c.nx, c.nx, c.steps, c.runs, c.eps)
	fmt.Fprintf(stdout, "(the paper's testbed: 2048x2048, 5 steps, mean of 5 runs)\n\n")
	for _, f := range figures {
		if want[f.name] {
			if err := f.run(c, stdout); err != nil {
				return fmt.Errorf("figure %s: %w", f.name, err)
			}
		}
	}
	return nil
}
