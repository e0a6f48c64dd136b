package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"abft/internal/service"
)

// TestAbftloadDrivesService runs the generator against an in-process
// service: every scenario's requests finish, the report carries the
// latency and throughput lines, and the mixed drive leaves the
// coalescing counters scrapeable.
func TestAbftloadDrivesService(t *testing.T) {
	srv := service.New(service.Config{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, scenario := range []string{"single", "batch", "coalesce", "mixed"} {
		var out strings.Builder
		err := run([]string{
			"-addr", ts.URL, "-scenario", scenario,
			"-n", "12", "-c", "6", "-nx", "8",
		}, &out)
		if err != nil {
			t.Fatalf("%s: %v\n%s", scenario, err, out.String())
		}
		for _, want := range []string{"0 failed", "solves/sec", "latency p50", "coalesced", "sent by handle"} {
			if !strings.Contains(out.String(), want) {
				t.Fatalf("%s report missing %q:\n%s", scenario, want, out.String())
			}
		}
	}
}

// TestAbftloadBadInputs: flag and scenario validation fail loudly.
func TestAbftloadBadInputs(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "nope"}, &out); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if err := run([]string{"-n", "0"}, &out); err == nil {
		t.Fatal("zero requests accepted")
	}
	// No server listening: the drive must report the failures.
	if err := run([]string{"-addr", "http://127.0.0.1:1", "-n", "2", "-c", "1"}, &out); err == nil {
		t.Fatal("unreachable server reported success")
	}
}

// TestAbftloadCountsRejections: a 429 from a full queue is reported as
// a rejection, not as a failure of unknown cause, and does not fail the
// drive.
func TestAbftloadCountsRejections(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"service: job queue full"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	var out strings.Builder
	if err := run([]string{"-addr", ts.URL, "-n", "4", "-c", "2", "-nx", "8"}, &out); err != nil {
		t.Fatalf("rejections failed the drive: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 failed, 4 rejected (queue full)") {
		t.Fatalf("report does not count the rejections:\n%s", out.String())
	}
}
