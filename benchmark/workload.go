package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"
)

// A workload is prepared once per run (the benchmark's own inputs, made
// from the seed), set up many times from scratch (each set-up timed),
// and then driven through a fixed number of repetitions by one
// goroutine in a closed loop: the next operation starts when the
// previous one has been checked.
type workload struct {
	name string
	// reps and setupReps are the repetition counts of a 30-second run on
	// the reference box (README.md); -seconds scales both by one factor.
	reps, setupReps int
	prepare         func(seed int64) (setupFunc, error)
}

// setupFunc performs the workload's full set-up from scratch. With a
// tracer it also records the set-up's child spans.
type setupFunc func(tr *tracer) (instance, error)

// instance is one set-up of a workload, ready to run repetitions.
type instance interface {
	// op runs one repetition: the frozen reference first, then the
	// system under test on the same right-hand side(s), so both see the
	// same machine state. With a tracer the repetition is traced.
	op(tr *tracer) opResult
	// close releases what the set-up started; with a tracer it records
	// the counters only a finished instance can report.
	close(tr *tracer)
}

// opResult is one repetition's outcome. attempted counts solves; failed
// counts those that errored, did not converge, failed the independent
// residual check or broke the workload's shape guard.
type opResult struct {
	ref, sut          time.Duration
	attempted, failed int
}

// minSamples is the fewest samples a timing is ever reported from; the
// wall-clock valve below cannot cut a loop shorter than this.
const minSamples = 20

// traceMode selects which repetitions of a run are traced.
type traceMode int

const (
	untraced     traceMode = iota // end-to-end numbers: tracing off
	tracedOnly                    // per-layer numbers only
	tracedPaired                  // each repetition untraced, then traced: the tracing overhead
)

// measurement is what one run of one workload observed.
type measurement struct {
	setupS            []float64 // seconds per set-up from scratch
	refMS, sutMS      []float64 // per repetition, tracing off
	tracedMS          []float64 // per repetition, tracing on
	residentMB        float64
	attempted, failed int
	allocKBPerOp      float64
}

// heapAlloc returns the live heap after two collections; the second
// frees what finalizers and sweeps of the first released.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocated returns the bytes allocated on the heap so far. Unlike
// runtime.ReadMemStats it does not stop the world, so it can bracket
// every operation.
func allocated() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// measure runs one workload: setupReps set-ups from scratch, then reps
// repetitions on the last of them. Repetition counts are fixed, not a
// duration, so every run reports the same order statistic of the same
// number of samples; limit is only a valve against a box so slow that
// the run would break the driver's time cap, and it never leaves fewer
// than minSamples.
func measure(w workload, seed int64, reps, setupReps int, limit time.Duration, mode traceMode, tr *tracer) (*measurement, error) {
	setup, err := w.prepare(seed)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name, err)
	}
	m := &measurement{}
	var inst instance
	var heapBefore uint64
	setupStart := time.Now()
	for i := 0; i < setupReps; i++ {
		last := i == setupReps-1 || (i+1 >= minSamples && time.Since(setupStart) > limit/5)
		// An untimed collection before every set-up: without it the
		// previous set-up's garbage is collected inside this one's
		// timing (README.md, rule 4).
		if last {
			heapBefore = heapAlloc()
		} else {
			runtime.GC()
		}
		start := time.Now()
		inst, err = setup(tr)
		m.setupS = append(m.setupS, seconds(time.Since(start)))
		if err != nil {
			return nil, fmt.Errorf("%s: set-up %d: %w", w.name, i, err)
		}
		if last {
			break
		}
		inst.close(nil)
		inst = nil // or the closed instance would count as live before the last set-up
	}
	// resident_mb: what set-up left live, with the benchmark's own
	// inputs (allocated in prepare) in both readings.
	m.residentMB = float64(int64(heapAlloc())-int64(heapBefore)) / (1 << 20)

	var allocBytes uint64
	untracedOps := 0
	opsStart := time.Now()
	for i := 0; i < reps; i++ {
		if i >= minSamples && time.Since(opsStart) > limit {
			break
		}
		if mode != tracedOnly {
			runtime.GC()
			before := allocated()
			r := inst.op(nil)
			allocBytes += allocated() - before
			untracedOps += r.attempted
			m.refMS = append(m.refMS, millis(r.ref))
			m.sutMS = append(m.sutMS, millis(r.sut))
			m.attempted += r.attempted
			m.failed += r.failed
		}
		if mode != untraced {
			runtime.GC()
			r := inst.op(tr)
			m.tracedMS = append(m.tracedMS, millis(r.sut))
			m.attempted += r.attempted
			m.failed += r.failed
		}
	}
	if untracedOps > 0 {
		m.allocKBPerOp = float64(allocBytes) / 1024 / float64(untracedOps)
	}
	inst.close(tr)
	return m, nil
}
