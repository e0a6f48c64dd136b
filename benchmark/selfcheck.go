package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec mirrors the parts of BENCHMARK.json, the contract this program is
// run under, that the program and its tests read.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readSpec loads BENCHMARK.json from the repository root, whether the
// program runs there or in its own directory.
func readSpec() (*spec, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s spec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// selfCheck runs every workload twice, on seed and seed+1, and prints
// how far each end-to-end metric moved beside the bound BENCHMARK.json
// allows it. The bounds are only meaningful if the same code, run twice,
// stays inside them; a pair that does not is an error.
func selfCheck(seed int64, secs float64) error {
	sp, err := readSpec()
	if err != nil {
		return err
	}
	exceeded := 0
	fmt.Printf("%-10s %-12s %12s %12s %8s %6s\n", "workload", "metric", "run 1", "run 2", "worse", "bound")
	for _, w := range workloads {
		var reps [2]report
		for i := range reps {
			if reps[i], err = runEndToEnd(w, seed+int64(i), secs); err != nil {
				return err
			}
			if reps[i].Failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, reps[i].Failed, reps[i].Attempted)
			}
		}
		for _, m := range sp.EndToEnd {
			a, b := reps[0].Metrics[m.Name].Value, reps[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			mark := ""
			if worse > m.Bound {
				mark = "  EXCEEDED"
				exceeded++
			}
			fmt.Printf("%-10s %-12s %12.5g %12.5g %+7.2f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*worse, 100*m.Bound, mark)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("%d metric(s) moved by more than their bound between two runs of the same code", exceeded)
	}
	return nil
}
