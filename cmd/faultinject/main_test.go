package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"abft/internal/csr"
	"abft/internal/mm"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-scheme", "secded64", "-structure", "elements",
		"-bits", "1", "-trials", "20", "-size", "8",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"fault injection: 20 trials", "secded64", "per-format matrix campaign totals"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestRunMatrixMarketIngestion injects into an operator loaded from a
// MatrixMarket file instead of the generated stencil.
func TestRunMatrixMarketIngestion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "op.mtx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := mm.Write(f, csr.Laplacian2D(8, 8)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err = run([]string{
		"-matrix", path,
		"-scheme", "secded64", "-structure", "elements",
		"-bits", "1", "-trials", "20",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "matrix "+path) {
		t.Errorf("output does not name the ingested matrix:\n%s", out.String())
	}

	var errOut bytes.Buffer
	if err := run([]string{"-matrix", filepath.Join(t.TempDir(), "missing.mtx")}, &errOut); err == nil {
		t.Fatal("missing matrix file accepted")
	}
}

// TestRunPrecondCampaign runs the preconditioner-state structure: the
// protected setup product must correct the single flips and detect the
// doubles (SECDED64), with no SDC.
func TestRunPrecondCampaign(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-structure", "precond", "-precond", "sgs",
		"-scheme", "secded64", "-trials", "20", "-size", "8",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"sgs", "precond", "secded64"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-scheme", "tmr"}, "choices: none, sed, secded64, secded128, crc32c"},
		{[]string{"-format", "ellpack"}, "choices: csr, coo, sellcs"},
		{[]string{"-structure", "diagonal"}, "choices: vector, elements, rowptr, halo, precond, solverstate"},
		{[]string{"-precond", "ilu"}, "choices: none, jacobi, bjacobi, sgs"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("args %v accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not contain %q", c.args, err, c.want)
		}
	}
}

// TestRunSolverStateCampaign smokes the -recovery path: live solver
// vectors are corrupted mid-solve and the rollback policy recovers.
func TestRunSolverStateCampaign(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-structure", "solverstate", "-recovery", "rollback",
		"-scheme", "secded64", "-bits", "2", "-trials", "8", "-size", "6"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "solverstate") || !strings.Contains(s, "recovery=rollback") {
		t.Errorf("output missing solverstate reporting:\n%s", s)
	}
	if err := run([]string{"-recovery", "bogus"}, &out); err == nil {
		t.Fatal("unknown recovery policy accepted")
	}
}
