package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"
)

func TestLoggerEmitsLeveledJSON(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo)
	log.Debug("hidden")
	log.Info("solve finished", "job", "j00000001", "iterations", 40)
	if buf.Len() == 0 {
		t.Fatal("info record not written")
	}
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line is not one JSON object: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "solve finished" || rec["job"] != "j00000001" {
		t.Fatalf("record fields missing: %v", rec)
	}
	if bytes.Contains(buf.Bytes(), []byte("hidden")) {
		t.Fatal("debug record leaked past the info level")
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	log := NopLogger()
	if log.Enabled(context.Background(), slog.LevelError) {
		t.Fatal("nop logger claims to be enabled")
	}
	log.Error("dropped") // must not panic
}

func TestTraceSpansAndSummary(t *testing.T) {
	tr := NewTrace("j42")
	start := time.Now()
	tr.Add("queue_wait", start, 5*time.Millisecond, "")
	tr.Add("solve", start, 20*time.Millisecond, "")
	tr.Add("recovery", start, 2*time.Millisecond, "rollback to iteration 4")
	tr.Add("recovery", start, 3*time.Millisecond, "rollback to iteration 8")
	tr.Count("rollbacks", 2)
	tr.Residual(1.5)
	tr.Residual(0.25)

	snap := tr.Snapshot()
	if snap.JobID != "j42" || len(snap.Spans) != 4 {
		t.Fatalf("snapshot %+v", snap)
	}
	if snap.Counters["rollbacks"] != 2 || len(snap.Residuals) != 2 {
		t.Fatalf("counters/residuals %+v", snap)
	}

	sum := tr.Summary()
	if sum.Spans != 4 || sum.Residuals != 2 {
		t.Fatalf("summary %+v", sum)
	}
	if got := sum.StageSeconds["recovery"]; got < 0.004999 || got > 0.005001 {
		t.Fatalf("recovery stage sum %v, want ~0.005", got)
	}
}

func TestTraceResidualBound(t *testing.T) {
	tr := NewTrace("j1")
	for i := 0; i < maxTraceResiduals+100; i++ {
		tr.Residual(float64(i))
	}
	snap := tr.Snapshot()
	if len(snap.Residuals) != maxTraceResiduals {
		t.Fatalf("retained %d residuals, want %d", len(snap.Residuals), maxTraceResiduals)
	}
	if snap.ResidualsDropped != 100 {
		t.Fatalf("dropped %d, want 100", snap.ResidualsDropped)
	}
}

func TestTraceStartCloser(t *testing.T) {
	tr := NewTrace("j1")
	done := tr.Start("build")
	time.Sleep(time.Millisecond)
	done("cache miss")
	snap := tr.Snapshot()
	if len(snap.Spans) != 1 || snap.Spans[0].Stage != "build" || snap.Spans[0].Detail != "cache miss" {
		t.Fatalf("span %+v", snap.Spans)
	}
	if snap.Spans[0].Seconds <= 0 {
		t.Fatalf("span duration %v not positive", snap.Spans[0].Seconds)
	}
}

func TestHistogramBucketsAndSum(t *testing.T) {
	var h Histogram
	h.Observe(500 * time.Nanosecond) // <= 1e-6, first bucket
	h.Observe(3 * time.Millisecond)  // <= 5e-3
	h.Observe(90 * time.Second)      // past the last bound: +Inf
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count %d want 3", s.Count)
	}
	bounds := HistBounds()
	if len(s.Cumulative) != len(bounds)+1 {
		t.Fatalf("cumulative length %d, bounds %d", len(s.Cumulative), len(bounds))
	}
	if s.Cumulative[0] != 1 {
		t.Fatalf("first bucket %d want 1", s.Cumulative[0])
	}
	// Everything but the 90s outlier is <= the last finite bound.
	if last := s.Cumulative[len(bounds)-1]; last != 2 {
		t.Fatalf("last finite bucket %d want 2", last)
	}
	if inf := s.Cumulative[len(bounds)]; inf != 3 {
		t.Fatalf("+Inf bucket %d want 3", inf)
	}
	want := (500*time.Nanosecond + 3*time.Millisecond + 90*time.Second).Seconds()
	if diff := s.SumSeconds - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum %v want %v", s.SumSeconds, want)
	}
	// Cumulative counts never decrease.
	for i := 1; i < len(s.Cumulative); i++ {
		if s.Cumulative[i] < s.Cumulative[i-1] {
			t.Fatalf("cumulative counts decreased at %d: %v", i, s.Cumulative)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count %d want 8000", s.Count)
	}
}

func TestJournalRingAndTotals(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 7; i++ {
		j.Append(Event{Kind: EventScrubCorrection, Detail: fmt.Sprintf("e%d", i)})
	}
	j.Append(Event{Kind: EventJobRetry, Job: "j7"})
	events, total := j.Snapshot()
	if total != 8 {
		t.Fatalf("total %d want 8", total)
	}
	if len(events) != 4 {
		t.Fatalf("retained %d want 4", len(events))
	}
	// Oldest-first: the last four appends survive, in order.
	if events[0].Detail != "e4" || events[3].Kind != EventJobRetry {
		t.Fatalf("ring order wrong: %+v", events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Fatalf("events out of time order: %+v", events)
		}
	}
	totals := j.Totals()
	if len(totals) != 2 || totals[0].Kind != EventJobRetry || totals[0].Count != 1 ||
		totals[1].Kind != EventScrubCorrection || totals[1].Count != 7 {
		t.Fatalf("totals %+v", totals)
	}
}

func TestJournalMinimumCapacity(t *testing.T) {
	j := NewJournal(0)
	j.Append(Event{Kind: "a"})
	j.Append(Event{Kind: "b"})
	events, total := j.Snapshot()
	if len(events) != 1 || events[0].Kind != "b" || total != 2 {
		t.Fatalf("events %+v total %d", events, total)
	}
}
