package main

import (
	"bytes"
	"strings"
	"testing"

	"abft/internal/ecc"
)

// tinyConfig keeps the measurement workloads small enough for unit tests;
// overhead numbers are meaningless at this size but every code path runs.
func tinyConfig() config {
	return config{nx: 16, steps: 1, runs: 1, eps: 1e-6, maxExp: 2}
}

func TestFig4Runs(t *testing.T) {
	rows, err := fig4(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(schemeVariants) {
		t.Fatalf("rows %d want %d", len(rows), len(schemeVariants))
	}
	labels := map[string]bool{}
	for _, r := range rows {
		labels[r.label] = true
		if r.base <= 0 || r.protected <= 0 {
			t.Fatalf("row %s has non-positive times: %+v", r.label, r)
		}
	}
	for _, want := range []string{"sed", "secded64", "secded128", "crc32c-hw", "crc32c-sw"} {
		if !labels[want] {
			t.Fatalf("missing scheme %s", want)
		}
	}
}

func TestFig5AndFig9Run(t *testing.T) {
	if _, err := fig5(tinyConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := fig9(tinyConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestIntervalSweeps(t *testing.T) {
	for name, fn := range map[string]func(config) (series, error){
		"fig6": fig6, "fig7": fig7, "fig8": fig8,
	} {
		s, err := fn(tinyConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(s.points) != 3 { // intervals 1, 2, 4 with maxExp 2
			t.Fatalf("%s: %d points", name, len(s.points))
		}
		for i, p := range s.points {
			if p.interval != 1<<uint(i) {
				t.Fatalf("%s: point %d interval %d", name, i, p.interval)
			}
		}
	}
}

func TestFullProtection(t *testing.T) {
	r, err := fullProtection(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.label != "full-secded64" {
		t.Fatalf("label %q", r.label)
	}
	if hardwareECCTargetPct != 8.1 {
		t.Fatal("paper constant changed")
	}
}

func TestConvergenceStudy(t *testing.T) {
	rows, err := convergence(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// The paper's bound: solutions agree within 2.0e-11 percent.
		if r.normDiffPct > normDiffBudgetPct {
			t.Fatalf("%s: norm diff %.3e%% exceeds the paper budget %.1e%%",
				r.label, r.normDiffPct, normDiffBudgetPct)
		}
		if r.iterGrowthPct > iterGrowthBudgetPct {
			t.Fatalf("%s: iteration growth %.2f%% exceeds %.0f%%",
				r.label, r.iterGrowthPct, iterGrowthBudgetPct)
		}
		if r.checks == 0 {
			t.Fatalf("%s: no checks recorded", r.label)
		}
	}
}

func TestCRCThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("timing loop")
	}
	rows := crcThroughput()
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	peak := map[ecc.Backend]float64{}
	for _, r := range rows {
		if r.throughput <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
		if r.bufferSize == 1<<20 {
			peak[r.backend] = r.throughput
		}
	}
	// The hardware (stdlib) path must beat slicing-by-16 on large buffers
	// on any platform with a CRC32 instruction; allow equality elsewhere.
	if hw, sw := peak[ecc.Hardware], peak[ecc.Software]; hw < sw*0.5 {
		t.Fatalf("hardware CRC (%f MB/s) implausibly slower than software (%f MB/s)", hw, sw)
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	printRows(&buf, "Figure 4", []row{{label: "sed", base: 100, protected: 103}})
	printSeries(&buf, "Figure 6", series{label: "sed", base: 100, points: []point{{interval: 1, time: 105}}})
	printConvergence(&buf, []convRow{{label: "sed", iterations: 10}})
	printCRC(&buf, []crcRow{{backend: ecc.Hardware, bufferSize: 32, throughput: 1000}})
	out := buf.String()
	for _, want := range []string{"Figure 4", "sed", "3.0%", "interval", "5.0%", "norm diff", "backend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
