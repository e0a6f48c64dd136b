package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRuns are the campaigns whose printed tables are pinned byte for
// byte in testdata: between them they reach every trial path of
// internal/faults (resident vectors and matrices, sharded matrices and
// halo buffers, preconditioner state, live solver state plain and
// sharded, and the inner phase plain and sharded). The tables are
// deterministic, so any change in a trial's random draws, its strike or
// its classification moves a row.
var goldenRuns = []struct {
	name string
	args string
	// solves marks campaigns whose every trial runs two full solves;
	// -short skips them.
	solves bool
}{
	{"format_all", "-format all -size 12", false},
	{"shards3", "-shards 3 -size 12", false},
	{"precond_sgs", "-format all -structure precond -precond sgs", false},
	{"solverstate_rollback", "-format all -recovery rollback -structure solverstate -size 12", true},
	{"solverstate_shards2_restart", "-shards 2 -recovery restart -structure solverstate -size 12", true},
	{"inner", "-format all -phase inner -size 12", true},
	{"inner_shards2", "-shards 2 -phase inner -size 12", true},
}

// TestGoldenTables compares each golden campaign's output, at 8 trials
// per row, against testdata/<name>.golden. To regenerate after an
// intended change, run the printed command for each entry, e.g.
//
//	go run ./cmd/faultinject -format all -size 12 -trials 8 > cmd/faultinject/testdata/format_all.golden
func TestGoldenTables(t *testing.T) {
	for _, g := range goldenRuns {
		t.Run(g.name, func(t *testing.T) {
			if g.solves && testing.Short() {
				t.Skip("two full solves per trial; run without -short")
			}
			args := append(strings.Fields(g.args), "-trials", "8")
			var out bytes.Buffer
			if err := run(args, &out); err != nil {
				t.Fatalf("run %v: %v", args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("faultinject %s differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s",
					strings.Join(args, " "), g.name, out.Bytes(), want)
			}
		})
	}
}
