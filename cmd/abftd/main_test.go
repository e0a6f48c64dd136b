package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"abft/internal/obs"
	"abft/internal/service"
)

// syncBuffer is a mutex-guarded bytes.Buffer: the daemon's structured
// logger writes to stdout from worker goroutines, so the capture buffer
// must tolerate concurrent writers.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonSmoke boots the daemon on an ephemeral port, round-trips a
// solve and shuts it down cleanly.
func TestDaemonSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "2", "-scrub", "10ms"}, &out, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	body := `{"matrix": {"grid": {"nx": 8, "ny": 8}}, "scheme": "secded64", "tol": 1e-8}`
	resp, err = http.Post(base+"/v1/solve?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		State  string `json:"state"`
		Result *struct {
			Converged bool `json:"converged"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != "done" || st.Result == nil || !st.Result.Converged {
		t.Fatalf("solve round-trip failed: status %d, body %+v", resp.StatusCode, st)
	}

	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "abftd listening on") {
		t.Fatalf("missing startup line in output:\n%s", out.String())
	}
}

// TestDaemonDebugEndpoints boots the daemon with the debug listener and
// verbose structured logging, round-trips a solve, and checks every
// observability surface: /metrics, /v1/events, the job trace, the pprof
// index, expvar, and the JSON log stream.
func TestDaemonDebugEndpoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	ready := make(chan string, 2)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{
			"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
			"-log-level", "debug", "-workers", "2", "-scrub", "10ms",
		}, &out, ready)
	}()
	var addr, debugAddr string
	for _, dst := range []*string{&addr, &debugAddr} {
		select {
		case *dst = <-ready:
		case err := <-errc:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("daemon never became ready")
		}
	}
	base := "http://" + addr

	resp, err := http.Post(base+"/v1/solve?wait=1", "application/json",
		strings.NewReader(`{"matrix": {"grid": {"nx": 8, "ny": 8}}, "scheme": "secded64", "tol": 1e-8}`))
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.State != "done" {
		t.Fatalf("solve round-trip failed: status %d, %+v", resp.StatusCode, st)
	}

	nonEmpty := func(url string) string {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("GET %s: status %d, %d bytes", url, resp.StatusCode, len(body))
		}
		return string(body)
	}
	if body := nonEmpty(base + "/metrics"); !strings.Contains(body, "abftd_stage_duration_seconds_bucket") {
		t.Fatal("stage histograms missing from /metrics")
	}
	var trace service.TraceSnapshot
	body := nonEmpty(base + "/v1/jobs/" + st.ID + "/trace")
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("trace does not decode: %v: %s", err, body)
	}
	if !slices.ContainsFunc(trace.Spans, func(sp obs.Span) bool { return sp.Stage == service.StageSolve }) {
		t.Fatalf("trace missing solve span: %s", body)
	}
	nonEmpty(base + "/v1/events")
	nonEmpty("http://" + debugAddr + "/debug/pprof/")
	if body := nonEmpty("http://" + debugAddr + "/debug/vars"); !strings.Contains(body, "memstats") {
		t.Fatal("expvar missing memstats")
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	logs := out.String()
	for _, want := range []string{
		"abftd debug endpoints on",
		`"msg":"service started"`,
		`"msg":"job finished"`,
		`"level":"DEBUG"`,
	} {
		if !strings.Contains(logs, want) {
			t.Fatalf("daemon output missing %q:\n%s", want, logs)
		}
	}
}

func TestDaemonBadFlags(t *testing.T) {
	var out syncBuffer
	err := run(context.Background(), []string{"-nope"}, &out, nil)
	if err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestDaemonGracefulShutdown enqueues asynchronous work and then
// signals shutdown: the daemon must drain the queued jobs within the
// deadline and report a clean exit.
func TestDaemonGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-workers", "1", "-drain", "30s"}, &out, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon never became ready")
	}

	// Queue async jobs (no wait) so the drain has work to finish.
	for i := 0; i < 3; i++ {
		resp, err := http.Post("http://"+addr+"/v1/solve", "application/json",
			strings.NewReader(`{"matrix": {"grid": {"nx": 10, "ny": 10}}, "scheme": "secded64", "recovery": "rollback", "tol": 1e-8}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("solve status %d", resp.StatusCode)
		}
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("graceful shutdown failed: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if !strings.Contains(out.String(), "drained and shut down") {
		t.Fatalf("missing drain confirmation in output:\n%s", out.String())
	}
}
