// Command benchmark is the repository's benchmark: four closed-loop,
// single-client workloads, four end-to-end metrics reported identically
// by every workload against a frozen plain-CG reference, and a separate
// traced run that produces the per-layer metrics. BENCHMARK.json at the
// repository root is its contract; README.md says why each workload and
// metric exists and which should move when a layer changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// workloads lists the benchmark's workloads in BENCHMARK.json order;
// README.md says what each is for. Repetition counts are those of a
// 30-second run on the reference box.
var workloads = []workload{
	{name: "cg_csr", reps: 500, setupReps: 300, prepare: prepareLib(cgCSR)},
	{name: "pcg_shard", reps: 700, setupReps: 300, prepare: prepareLib(pcgShard)},
	{name: "svc_warm", reps: 1800, setupReps: 300, prepare: prepareWarm},
	{name: "svc_burst", reps: 650, setupReps: 300, prepare: prepareBurst},
}

// metricDef names one metric, its unit and the statistic that reduces
// its samples.
type metricDef struct {
	name, unit string
	stat       func([]float64) float64
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// endToEnd are the metrics every workload reports with tracing off.
// fail_frac is not among them: the output's attempted and failed fields
// carry it, and a metric that is always zero has no relative bound.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "solve_ms", unit: "ms"},
	{name: "overhead_x", unit: "x"},
	{name: "resident_mb", unit: "MB"},
}

// perLayer are the metrics of the traced run. Timings reduce to their
// fastest sample like the end-to-end ones; shares and exact counts
// reduce to their median.
var perLayer = []metricDef{
	{"ecc.secded64_check_ns", "ns", fastest},
	{"ecc.secded64_encode_ns", "ns", fastest},
	{"ecc.crc32c_64B_ns", "ns", fastest},
	{"core.spmv_ns_row", "ns", fastest},
	{"core.spmv_256_ns_row", "ns", fastest},
	{"core.tail_ns_row", "ns", fastest},
	{"core.dot_ns_row", "ns", fastest},
	{"core.cg_checks_per_solve", "count", median},
	{"core.pcg_checks_per_solve", "count", median},
	{"core.raw_x", "x", median},
	{"core.encode_ns_nnz", "ns", fastest},
	{"core.vec_encode_ns_row", "ns", fastest},
	{"core.spmm_ns_row_rhs", "ns", fastest},
	{"sell.apply_ns_row", "ns", fastest},
	{"shard.apply_ns_row", "ns", fastest},
	{"shard.scatter_share", "share", median},
	{"shard.exchange_share", "share", median},
	{"shard.local_share", "share", median},
	{"shard.dot_ns_row", "ns", fastest},
	{"precond.apply_ns_row", "ns", fastest},
	{"precond.setup_ms", "ms", fastest},
	{"solvers.cg_iters", "count", median},
	{"solvers.cg_iter_us", "us", fastest},
	{"solvers.cg_apply_share", "share", median},
	{"solvers.cg_self_share", "share", median},
	{"solvers.pcg_iters", "count", median},
	{"solvers.pcg_iter_us", "us", fastest},
	{"solvers.pcg_apply_share", "share", median},
	{"solvers.pcg_dot_share", "share", median},
	{"solvers.pcg_precond_share", "share", median},
	{"solvers.pcg_self_share", "share", median},
	{"solvers.checkpoint_share", "share", median},
	{"solvers.warm_iters", "count", median},
	{"solvers.blockcg_iters", "count", median},
	{"par.cg_dispatches_per_solve", "count", median},
	{"par.pcg_dispatches_per_solve", "count", median},
	{"par.dispatch_ns", "ns", fastest},
	{"service.admission_ms", "ms", fastest},
	{"service.queue_ms", "ms", fastest},
	{"service.build_ms", "ms", fastest},
	{"service.solve_ms", "ms", fastest},
	{"service.http_json_ms", "ms", fastest},
	{"service.cache_hit_frac", "share", median},
	{"service.batch_width", "count", median},
	{"service.coalesced_frac", "share", median},
	{"mm.parse_ms", "ms", fastest},
	// bench.* describe the workload named on the command line.
	{"bench.trace_slowdown_x", "x", median},
	{"bench.alloc_kb_per_op", "KB", median},
	{"bench.solve_p50_ms", "ms", median},
	{"bench.solve_p90_ms", "ms", median},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the one JSON object a run prints as its last line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// scaled applies the run-length factor to a 30-second repetition count.
func scaled(n int, factor float64) int {
	return max(int(math.Round(float64(n)*factor)), 4)
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(w workload, seed int64, secs float64) (report, error) {
	factor := secs / 30
	limit := time.Duration(1.25 * secs * float64(time.Second))
	m, err := measure(w, seed, scaled(w.reps, factor), scaled(w.setupReps, factor), limit, untraced, nil)
	if err != nil {
		return report{}, err
	}
	diagnose(w.name, m)
	solve := fastest(m.sutMS)
	values := []float64{fastest(m.setupS), solve, solve / fastest(m.refMS), m.residentMB}
	rep := report{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]value{}}
	for i, d := range endToEnd {
		rep.Metrics[d.name] = value{values[i], d.unit}
	}
	return rep, nil
}

// diagnose prints the unguarded quantiles to standard error.
func diagnose(name string, m *measurement) {
	for _, s := range []struct {
		what string
		xs   []float64
	}{{"setup_s", m.setupS}, {"ref_ms", m.refMS}, {"solve_ms", m.sutMS}} {
		fmt.Fprintf(os.Stderr, "%s %-8s n=%d min=%.4g p10=%.4g p25=%.4g p50=%.4g p75=%.4g p90=%.4g max=%.4g\n",
			name, s.what, len(s.xs), fastest(s.xs), quantile(s.xs, 0.1), quantile(s.xs, 0.25), median(s.xs), quantile(s.xs, 0.75), quantile(s.xs, 0.9), quantile(s.xs, 1))
	}
}

// runTraced produces the per-layer metrics. The layer table is a
// property of the program, not of one workload, so every traced run
// measures all of it: each workload traced at a fraction of its
// repetitions, then the kernels no workload span isolates. The named
// workload alone also runs untraced, repetition by repetition, which
// gives the tracing overhead and the bench.* diagnostics.
func runTraced(named string, seed int64, secs float64) (report, error) {
	tr := newTracer()
	rep := report{Metrics: map[string]value{}}
	limit := time.Duration(secs / 4 * float64(time.Second))
	var bench *measurement
	for _, w := range workloads {
		mode, factor := tracedOnly, secs/30/8
		if w.name == named {
			mode = tracedPaired
		}
		m, err := measure(w, seed, scaled(w.reps, factor), scaled(w.setupReps, factor), limit, mode, tr)
		if err != nil {
			return rep, err
		}
		rep.Attempted += m.attempted
		rep.Failed += m.failed
		if w.name == named {
			bench = m
		}
	}
	if err := kernelLayers(tr, seed, max(int(2*secs), 8)); err != nil {
		return rep, err
	}
	tr.add("bench.trace_slowdown_x", fastest(bench.tracedMS)/fastest(bench.sutMS))
	tr.add("solvers.checkpoint_share", 1-fastest(tr.samples[ckptOffMS])/fastest(tr.samples[ckptOnMS]))
	tr.add("bench.alloc_kb_per_op", bench.allocKBPerOp)
	tr.add("bench.solve_p50_ms", median(bench.sutMS))
	tr.add("bench.solve_p90_ms", quantile(bench.sutMS, 0.9))
	for _, d := range perLayer {
		xs := tr.samples[d.name]
		if len(xs) == 0 {
			return rep, fmt.Errorf("traced run recorded no sample of %s", d.name)
		}
		rep.Metrics[d.name] = value{d.stat(xs), d.unit}
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run() error {
	// One processor: with two, a run needs both of the box's virtual
	// cores quiet at once, and the sharded workload's fastest repetition
	// moved by 26% between runs against 3% for the single-threaded ones
	// (README.md). Sharded products and pool dispatches still happen;
	// their ranges run one after the other.
	runtime.GOMAXPROCS(1)
	name := flag.String("workload", "all", "workload to run: cg_csr, pcg_shard, svc_warm, svc_burst or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	secs := flag.Float64("seconds", 30, "run length; repetition counts scale by seconds/30")
	trace := flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two runs against the bounds in BENCHMARK.json")
	flag.Parse()
	if *secs <= 0 || flag.NArg() > 0 {
		return fmt.Errorf("usage: benchmark -workload <name|all> -seed N -seconds S -trace <0|1> [-selfcheck]")
	}
	if *selfcheck {
		return selfCheck(*seed, *secs)
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	correct := true
	for _, w := range selected {
		var rep report
		var err error
		if *trace != 0 {
			rep, err = runTraced(w.name, *seed, *secs)
		} else {
			rep, err = runEndToEnd(w, *seed, *secs)
		}
		if err != nil {
			return err
		}
		line, err := json.Marshal(rep)
		if err != nil {
			return err
		}
		if len(selected) > 1 {
			fmt.Printf("# %s\n", w.name)
		}
		fmt.Printf("%s\n", line)
		correct = correct && rep.Correct
	}
	if !correct {
		return fmt.Errorf("a workload produced a wrong answer")
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
