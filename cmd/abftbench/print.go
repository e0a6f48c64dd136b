package main

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// roundDur rounds a duration for table display: milliseconds at paper
// sizes, microseconds for the small grids of a smoke run.
func roundDur(d time.Duration) time.Duration {
	if d < 10*time.Millisecond {
		return d.Round(time.Microsecond)
	}
	return d.Round(time.Millisecond)
}

// printTitle writes a figure title underlined to its width.
func printTitle(w io.Writer, title string) {
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
}

// printRows renders an overhead figure as an aligned text table with a
// crude bar chart, mirroring the shape of the paper's bar figures.
func printRows(w io.Writer, title string, rows []row) {
	printTitle(w, title)
	fmt.Fprintf(w, "%-22s %12s %12s %10s\n", "scheme", "baseline", "protected", "overhead")
	for _, r := range rows {
		pct := overhead(r.base, r.protected)
		fmt.Fprintf(w, "%-22s %12s %12s %9.1f%% %s\n",
			r.label, roundDur(r.base), roundDur(r.protected), pct, bar(pct))
	}
	fmt.Fprintln(w)
}

// printSeries renders a check-interval sweep.
func printSeries(w io.Writer, title string, s series) {
	printTitle(w, title)
	fmt.Fprintf(w, "baseline %s, scheme %s\n", roundDur(s.base), s.label)
	fmt.Fprintf(w, "%-10s %12s %10s\n", "interval", "time", "overhead")
	for _, p := range s.points {
		pct := overhead(s.base, p.time)
		fmt.Fprintf(w, "%-10d %12s %9.1f%% %s\n", p.interval, roundDur(p.time), pct, bar(pct))
	}
	fmt.Fprintln(w)
}

// printConvergence renders the section VI-B perturbation study.
func printConvergence(w io.Writer, rows []convRow) {
	printTitle(w, "Convergence under protection (section VI-B)")
	fmt.Fprintf(w, "%-14s %10s %12s %14s %12s %10s\n",
		"scheme", "iters", "iter growth", "norm diff %", "checks", "corrected")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %10d %11.2f%% %14.3e %12d %10d\n",
			r.label, r.iterations, r.iterGrowthPct, r.normDiffPct, r.checks, r.corrected)
	}
	fmt.Fprintf(w, "paper budgets: norm diff <= %.1e%%, iteration growth < %.0f%%\n\n",
		normDiffBudgetPct, iterGrowthBudgetPct)
}

// printCRC renders the CRC backend comparison.
func printCRC(w io.Writer, rows []crcRow) {
	printTitle(w, "CRC32C backends (hardware instruction vs slicing-by-16)")
	fmt.Fprintf(w, "%-10s %12s %14s\n", "backend", "buffer", "throughput")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %11.0f MB/s\n", r.backend, r.bufferSize, r.throughput)
	}
	fmt.Fprintln(w)
}

// bar draws a proportional ASCII bar for an overhead percentage.
func bar(pct float64) string {
	n := int(pct / 2)
	if n < 0 {
		n = 0
	}
	if n > 60 {
		n = 60
	}
	return strings.Repeat("#", n)
}
