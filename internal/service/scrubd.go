package service

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"abft/internal/obs"
	"abft/internal/precond"
)

// ScrubStats summarises scrub-daemon activity.
type ScrubStats struct {
	// Passes is the number of completed patrol sweeps over the cache.
	Passes uint64
	// Scrubbed is the number of operator scrubs performed.
	Scrubbed uint64
	// Shards is the number of shard-level scrubs performed: a sharded
	// operator's patrol sweeps every band, an unsharded one counts one.
	Shards uint64
	// Preconditioners is the number of named-preconditioner scrubs
	// performed: an entry built for one patrols its setup product right
	// after the operator, under the same lock. The Jacobi every entry
	// keeps is patrolled too, but counted here only when it is the
	// named preconditioner.
	Preconditioners uint64
	// Corrected is the total number of codewords repaired in place
	// (operators, resident Jacobis and named preconditioners together).
	Corrected uint64
	// Faults is the number of detected-but-uncorrectable errors found,
	// in any of those structures; each evicts its entry from the cache.
	Faults uint64
}

// scrubDaemon patrols the resident operators of the cache on a fixed
// interval — the paper's end-of-timestep scrub turned into a background
// service over a fleet of matrices. Each operator is scrubbed under its
// entry's exclusive lock, so in-place repairs never race with a solve;
// an operator whose scheme detects corruption it cannot correct is
// evicted, and the next request for its content rebuilds it clean.
type scrubDaemon struct {
	cache    *operatorCache
	interval time.Duration
	log      *slog.Logger
	// journal receives one event per correction batch and per fault
	// eviction, attributed to the operator scrubbed.
	journal *obs.Journal

	mu    sync.Mutex
	stats ScrubStats
	stop  chan struct{}
	done  chan struct{}
}

func newScrubDaemon(cache *operatorCache, interval time.Duration, log *slog.Logger, journal *obs.Journal) *scrubDaemon {
	return &scrubDaemon{cache: cache, interval: interval, log: log, journal: journal}
}

// Start launches the patrol goroutine; a non-positive interval disables
// background scrubbing (Pass still works for synchronous use).
func (d *scrubDaemon) Start() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.interval <= 0 || d.stop != nil {
		return
	}
	d.stop = make(chan struct{})
	d.done = make(chan struct{})
	go d.loop(d.stop, d.done)
}

// Stop halts the patrol goroutine, waiting for a pass in progress.
func (d *scrubDaemon) Stop() {
	d.mu.Lock()
	stop, done := d.stop, d.done
	d.stop, d.done = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Pass scrubs every resident operator once, oldest first. A sharded
// operator's Scrub patrols each band in turn, continuing past faulty
// shards so the whole fleet's damage is counted before eviction; an
// entry's resident Jacobi and named preconditioner are patrolled under
// the same exclusive lock, and an uncorrectable fault in any of them
// evicts the whole entry — the next request rebuilds it clean.
// An entry's scrub, repairs and fault are counted in the stats as soon
// as its lock is released, before the journal, the log and the eviction,
// so an observer (a test, a /metrics scrape mid-pass) that has seen the
// operator's own counter move or the entry evicted finds them counted.
func (d *scrubDaemon) Pass() {
	for _, e := range d.cache.resident() {
		e.mu.Lock()
		n, err := e.m.Scrub()
		for i, pre := range []precond.Preconditioner{e.jac, e.pre} {
			if pre == nil || i == 1 && pre == e.jac {
				continue // none, or the named one is the Jacobi
			}
			np, perr := pre.Scrub()
			n += np
			if err == nil {
				err = perr
			}
		}
		var preconds uint64
		if e.pre != nil {
			preconds = 1
		}
		e.mu.Unlock()
		d.mu.Lock()
		d.stats.Scrubbed++
		d.stats.Shards += uint64(e.shards)
		d.stats.Preconditioners += preconds
		d.stats.Corrected += uint64(n)
		if err != nil {
			d.stats.Faults++
		}
		d.mu.Unlock()
		if n > 0 {
			d.journal.Append(obs.Event{
				Kind: obs.EventScrubCorrection, Operator: opShort(e.key),
				Detail: fmt.Sprintf("%d codewords repaired in place", n),
			})
			d.log.Info("scrub corrected", "operator", opShort(e.key), "codewords", n)
		}
		if err != nil {
			d.cache.evictFault(e)
			d.journal.Append(obs.Event{
				Kind: obs.EventScrubEviction, Operator: opShort(e.key),
				Detail: "uncorrectable fault, operator evicted: " + err.Error(),
			})
			d.log.Warn("scrub evicted operator", "operator", opShort(e.key), "err", err)
		}
	}
	d.mu.Lock()
	d.stats.Passes++
	d.mu.Unlock()
}

// Stats returns a snapshot of scrub activity.
func (d *scrubDaemon) Stats() ScrubStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

func (d *scrubDaemon) loop(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			d.Pass()
		}
	}
}
