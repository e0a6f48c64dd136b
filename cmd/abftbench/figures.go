package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"abft/internal/core"
	"abft/internal/ecc"
	"abft/internal/tealeaf"
)

// config is the measurement workload, filled straight from the flags.
type config struct {
	nx, steps, runs, workers int
	eps                      float64
	// maxExp bounds the check-interval sweeps at 2^maxExp.
	maxExp int
	// log receives progress lines; nil under -quiet.
	log io.Writer
}

func (c config) logf(format string, args ...any) {
	if c.log != nil {
		fmt.Fprintf(c.log, format+"\n", args...)
	}
}

// protection names one ABFT configuration of the workload; the zero value
// is the unprotected baseline every figure compares against.
type protection struct {
	elem, rowptr, vec core.Scheme
	interval          int
	backend           ecc.Backend
}

// workloadConfig builds the TeaLeaf configuration for one measurement.
func (c config) workloadConfig(p protection) tealeaf.Config {
	cfg := tealeaf.DefaultConfig()
	cfg.NX, cfg.NY = c.nx, c.nx
	cfg.EndStep = c.steps
	cfg.Eps = c.eps
	cfg.RelativeTol = true
	cfg.MaxIters = 100000
	cfg.Workers = c.workers
	cfg.ElemScheme = p.elem
	cfg.RowPtrScheme = p.rowptr
	cfg.VectorScheme = p.vec
	cfg.CheckInterval = p.interval
	cfg.CRCBackend = p.backend
	return cfg
}

// measure returns the fastest wall time of c.runs full workload runs,
// each preceded by an untimed garbage collection — the repo benchmark's
// rule, so a figure reads the code's cost rather than the collector's
// or a noisy neighbour's.
func (c config) measure(p protection) (time.Duration, error) {
	var best time.Duration
	for r := 0; r < c.runs; r++ {
		sim, err := tealeaf.New(c.workloadConfig(p))
		if err != nil {
			return 0, err
		}
		runtime.GC()
		start := time.Now()
		if _, err := sim.Run(); err != nil {
			return 0, err
		}
		if d := time.Since(start); r == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// row is one bar of an overhead figure: fastest wall times of the
// unprotected baseline and the protected run.
type row struct {
	label           string
	base, protected time.Duration
}

// overhead is 100 * (protected - base) / base.
func overhead(base, protected time.Duration) float64 {
	return 100 * (protected.Seconds() - base.Seconds()) / base.Seconds()
}

// schemeVariant is one bar of the scheme-comparison figures.
type schemeVariant struct {
	label   string
	scheme  core.Scheme
	backend ecc.Backend
}

// schemeVariants lists the protection schemes of the scheme-comparison
// figures, with CRC32C measured under both backends.
var schemeVariants = []schemeVariant{
	{"sed", core.SED, ecc.Hardware},
	{"secded64", core.SECDED64, ecc.Hardware},
	{"secded128", core.SECDED128, ecc.Hardware},
	{"crc32c-hw", core.CRC32C, ecc.Hardware},
	{"crc32c-sw", core.CRC32C, ecc.Software},
}

// compareSchemes measures the workload once unprotected and once per
// scheme variant produced by mk.
func (c config) compareSchemes(mk func(schemeVariant) protection) ([]row, error) {
	base, err := c.measure(protection{})
	if err != nil {
		return nil, err
	}
	c.logf("baseline: %v", base)
	rows := make([]row, 0, len(schemeVariants))
	for _, v := range schemeVariants {
		d, err := c.measure(mk(v))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
		c.logf("%-12s %v", v.label, d)
		rows = append(rows, row{label: v.label, base: base, protected: d})
	}
	return rows, nil
}

// fig4 reproduces Figure 4: execution-time overhead of protecting the CSR
// elements only (values + column indices), per scheme.
func fig4(c config) ([]row, error) {
	return c.compareSchemes(func(v schemeVariant) protection {
		return protection{elem: v.scheme, backend: v.backend}
	})
}

// fig5 reproduces Figure 5: overhead of protecting the row-pointer vector
// only, per scheme.
func fig5(c config) ([]row, error) {
	return c.compareSchemes(func(v schemeVariant) protection {
		return protection{rowptr: v.scheme, backend: v.backend}
	})
}

// fig9 reproduces Figure 9: overhead of protecting the dense double
// precision vectors only, per scheme.
func fig9(c config) ([]row, error) {
	return c.compareSchemes(func(v schemeVariant) protection {
		return protection{vec: v.scheme, backend: v.backend}
	})
}

// point is one interval sample of a check-interval sweep.
type point struct {
	interval int
	time     time.Duration
}

// series is a check-interval sweep for one scheme.
type series struct {
	label  string
	base   time.Duration
	points []point
}

// intervalSweep measures full-CSR protection (elements + row pointers) at
// check intervals 1, 2, 4, ... 2^maxExp.
func (c config) intervalSweep(label string, s core.Scheme, backend ecc.Backend) (series, error) {
	base, err := c.measure(protection{})
	if err != nil {
		return series{}, err
	}
	out := series{label: label, base: base}
	c.logf("baseline: %v", base)
	for exp := 0; exp <= c.maxExp; exp++ {
		interval := 1 << uint(exp)
		d, err := c.measure(protection{elem: s, rowptr: s, interval: interval, backend: backend})
		if err != nil {
			return out, fmt.Errorf("%s interval %d: %w", label, interval, err)
		}
		c.logf("%-10s interval %3d: %v", label, interval, d)
		out.points = append(out.points, point{interval: interval, time: d})
	}
	return out, nil
}

// fig6 reproduces Figure 6: full-CSR SED protection across check
// intervals (the paper's Intel Broadwell experiment).
func fig6(c config) (series, error) {
	return c.intervalSweep("sed", core.SED, ecc.Hardware)
}

// fig7 reproduces Figure 7: full-CSR SECDED64 protection across check
// intervals (the paper's Cavium ThunderX experiment).
func fig7(c config) (series, error) {
	return c.intervalSweep("secded64", core.SECDED64, ecc.Hardware)
}

// fig8 reproduces Figure 8: full-CSR CRC32C protection across check
// intervals with the software CRC (the paper's consumer-GPU experiment,
// where no CRC instruction exists).
func fig8(c config) (series, error) {
	return c.intervalSweep("crc32c-sw", core.CRC32C, ecc.Software)
}

// fullProtection reproduces the section VII-B headline: everything —
// matrix elements, row pointers and all dense vectors — protected with
// SECDED64, compared against the unprotected baseline and the paper's
// measured 8.1 percent hardware-ECC overhead on the K40.
func fullProtection(c config) (row, error) {
	base, err := c.measure(protection{})
	if err != nil {
		return row{}, err
	}
	d, err := c.measure(protection{elem: core.SECDED64, rowptr: core.SECDED64, vec: core.SECDED64})
	if err != nil {
		return row{}, err
	}
	return row{label: "full-secded64", base: base, protected: d}, nil
}

// hardwareECCTargetPct is the paper's measured hardware-ECC overhead for
// TeaLeaf on the NVIDIA K40 (the comparison target for fullProtection).
const hardwareECCTargetPct = 8.1
