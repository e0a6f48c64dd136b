package main

import (
	"math"
	"testing"
)

// smokeSeconds runs every repetition count at a fiftieth of a 30-second
// run's.
const smokeSeconds = 30.0 / 50

func checkReport(t *testing.T, rep report, want []specMetric) {
	t.Helper()
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(rep.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := rep.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: in BENCHMARK.json but not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: emitted unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: value %v is not finite", m.Name, got.Value)
		}
	}
}

// The program and its contract must name the same workloads and the
// same metrics, each with its unit, and every value must be a number.
func TestEmittedMetricsMatchContract(t *testing.T) {
	sp, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, sp.Workloads[i].Name, w.name)
		}
		rep, err := runEndToEnd(w, 1, smokeSeconds)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, sp.EndToEnd)
		for _, m := range sp.EndToEnd {
			if rep.Metrics[m.Name].Value <= 0 {
				t.Errorf("%s/%s = %v: end-to-end metrics are never zero", w.name, m.Name, rep.Metrics[m.Name].Value)
			}
		}
	}
	rep, err := runTraced("svc_warm", 1, smokeSeconds)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, sp.PerLayer)
}
