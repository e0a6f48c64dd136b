package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark harness in -short mode")
	}
	var out bytes.Buffer
	err := run([]string{"-fig", "crc", "-quiet"}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	s := out.String()
	for _, want := range []string{"abftbench:", "fastest of", "CRC32C backends", "hardware"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-nope"}, &out); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-fig", "4", "-runs", "0"}, &out); err == nil {
		t.Fatal("zero repetitions accepted")
	}
}

// TestRunRejectsUnknownFigure: a retired figure or a typo fails before
// anything is measured, and the error lists the choices, matching the
// ParseFormat convention.
func TestRunRejectsUnknownFigure(t *testing.T) {
	for _, fig := range []string{"vecops", "10", "4,formats", ""} {
		var out bytes.Buffer
		err := run([]string{"-fig", fig, "-quiet"}, &out)
		if err == nil {
			t.Fatalf("-fig %q accepted", fig)
		}
		if want := "choices: 4, 5, 6, 7, 8, 9, full, conv, crc, all"; !strings.Contains(err.Error(), want) {
			t.Fatalf("-fig %q: error %q does not list %q", fig, err, want)
		}
		if out.Len() != 0 {
			t.Fatalf("-fig %q printed before failing:\n%s", fig, out.String())
		}
	}
}
