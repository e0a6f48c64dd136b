package main

import (
	"bytes"
	"strings"
	"testing"

	"abft/internal/ecc"
	"abft/internal/tealeaf"
)

func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-nx", "16", "-steps", "1",
		"-format", "sellcs", "-elements", "secded64", "-vectors", "sed",
		"-eps", "1e-8",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"TeaLeaf", "step    1", "field summary", "temperature"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunPreconditioned drives a protected preconditioned solve through
// the -solver/-precond flags and checks the configuration is reported.
func TestRunPreconditioned(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{
		"-nx", "16", "-steps", "1",
		"-solver", "pcg", "-precond", "sgs",
		"-elements", "secded64", "-vectors", "secded64",
		"-eps", "1e-8",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"solver pcg", "precond sgs", "field summary"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunPrecondUsage: the -precond flag must appear in the usage text
// with its registered choices.
func TestRunPrecondUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-h"}, &out); err == nil {
		t.Fatal("-h did not stop the run")
	}
	for _, want := range []string{"-precond", "jacobi, bjacobi, sgs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("usage missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunRejectsUnknownNames: unknown -scheme/-format values must list
// the registered choices instead of failing opaquely.
func TestRunRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-elements", "tmr"}, "choices: none, sed, secded64, secded128, crc32c"},
		{[]string{"-vectors", "hamming"}, "choices: none, sed, secded64, secded128, crc32c"},
		{[]string{"-format", "ellpack"}, "choices: csr, coo, sellcs"},
		{[]string{"-solver", "gmres"}, "choices: cg, jacobi, chebyshev, ppcg, pcg"},
		{[]string{"-precond", "ilu"}, "choices: none, jacobi, bjacobi, sgs"},
		{[]string{"-crc", "abacus"}, "choices: " + ecc.BackendNames()},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(c.args, &out)
		if err == nil {
			t.Errorf("args %v accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not list %q", c.args, err, c.want)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestRunRecoveryFlag smokes the solver recovery knobs.
func TestRunRecoveryFlag(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-nx", "8", "-steps", "1", "-vectors", "secded64",
		"-recovery", "rollback", "-ckpt-interval", "8"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "recovery=rollback") {
		t.Errorf("output missing recovery configuration:\n%s", out.String())
	}
	if err := run([]string{"-recovery", "bogus"}, &out); err == nil {
		t.Fatal("unknown recovery policy accepted")
	}
}

// TestRunCRCNamesMatchDeck: -crc and the deck's abft_crc accept the same
// backend names and aliases and map each to the same backend.
func TestRunCRCNamesMatchDeck(t *testing.T) {
	for _, name := range []string{"hardware", "hw", "auto", "software", "sw"} {
		cfg, err := tealeaf.ParseInput(strings.NewReader("abft_crc=" + name))
		if err != nil {
			t.Fatalf("deck abft_crc=%s: %v", name, err)
		}
		var out bytes.Buffer
		if err := run([]string{"-nx", "8", "-steps", "1", "-elements", "crc32c", "-crc", name}, &out); err != nil {
			t.Fatalf("-crc %s: %v", name, err)
		}
		if want := "crc=" + cfg.CRCBackend.String(); !strings.Contains(out.String(), want) {
			t.Errorf("-crc %s: output lacks %q, the deck's backend:\n%s", name, want, out.String())
		}
	}
}
