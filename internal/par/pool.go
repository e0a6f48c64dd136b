package par

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pool is the resident kernel worker pool. Workers are plain goroutines
// parked on an unexported dispatch channel; a Run hands them a *task by
// non-blocking send (a "help token") and then claims ranges itself, so
// dispatch never waits on pool availability and a Run nested inside a
// worker's fn cannot deadlock — in the worst case the caller executes
// every range serially, which is always correct.
//
// Tasks are recycled through a fixed-capacity free list so a steady-state
// dispatch performs zero heap allocations: no per-call goroutines, no
// per-call channels, no per-call error slices. A task returns to the free
// list only when its reference count — the caller plus every worker that
// accepted a help token — drops to zero, so a tardy worker can never
// observe a task that has been reinitialised for a later Run.
type pool struct {
	work chan *task
	free chan *task

	workers    atomic.Int64
	dispatches atomic.Uint64

	grow sync.Mutex
}

// task is the shared state of one dispatched Run. The claim cursor hands
// out range indices to the caller and helpers; pending counts ranges not
// yet finished and releases the caller through done when it hits zero.
type task struct {
	ranges  [][2]int
	fn      func(lo, hi int) error
	claim   atomic.Int64
	pending atomic.Int64
	refs    atomic.Int64
	done    chan struct{} // capacity 1: exactly one send per Run

	mu      sync.Mutex
	err     error
	failIdx int
}

var (
	poolOnce sync.Once
	thePool  *pool
)

// sharedPool returns the process-wide pool, creating (but not yet
// populating) it on first use. Workers spawn on the first dispatch, so
// merely observing Stats never starts goroutines.
func sharedPool() *pool {
	poolOnce.Do(func() {
		// The free list holds enough recycled tasks that sequential
		// dispatch never allocates even while tardy helpers still pin
		// earlier tasks; overflow beyond the cap is dropped to the GC.
		freeCap := 4*runtime.GOMAXPROCS(0) + 8
		p := &pool{
			work: make(chan *task, runtime.GOMAXPROCS(0)),
			free: make(chan *task, freeCap),
		}
		for i := 0; i < freeCap; i++ {
			p.free <- &task{done: make(chan struct{}, 1)}
		}
		thePool = p
	})
	return thePool
}

// ensure grows the pool to want resident workers (GOMAXPROCS at dispatch
// time), so a GOMAXPROCS raise after startup is honored. Workers are
// never reaped: the pool only ever grows, and parked goroutines cost a
// few kilobytes each.
func (p *pool) ensure(want int) {
	if int(p.workers.Load()) >= want {
		return
	}
	p.grow.Lock()
	for int(p.workers.Load()) < want {
		go p.worker()
		p.workers.Add(1)
	}
	p.grow.Unlock()
}

// worker parks on the dispatch channel and drains every task it is
// handed. It holds one reference per accepted token and must release it
// even when it arrives after the caller finished all ranges.
func (p *pool) worker() {
	for t := range p.work {
		t.runRanges()
		p.release(t)
	}
}

// run dispatches ranges to the pool and participates in the work. It is
// the only entry point that blocks, and only on the task's own done
// signal, which is guaranteed to arrive because the caller itself drains
// the claim cursor.
func (p *pool) run(ranges [][2]int, fn func(lo, hi int) error) error {
	p.ensure(runtime.GOMAXPROCS(0))
	p.dispatches.Add(1)

	t := p.get()
	t.ranges = ranges
	t.fn = fn
	t.claim.Store(0)
	t.pending.Store(int64(len(ranges)))
	t.err = nil
	t.failIdx = 0
	t.refs.Store(1) // the caller's reference

	// Invite at most one helper per remaining range. The reference is
	// taken before the send so a helper can never drop the count to zero
	// while the caller still holds the task; a failed (non-blocking)
	// send just means the pool is saturated and the caller inherits that
	// helper's share.
	for i := 1; i < len(ranges); i++ {
		t.refs.Add(1)
		select {
		case p.work <- t:
			continue
		default:
		}
		t.refs.Add(-1)
		break // channel full; further sends would fail too
	}

	t.runRanges()
	<-t.done
	err := t.err
	p.release(t)
	return err
}

// get recycles a task from the free list, falling back to allocation
// when concurrent dispatch has the whole list in flight.
func (p *pool) get() *task {
	select {
	case t := <-p.free:
		return t
	default:
		return &task{done: make(chan struct{}, 1)}
	}
}

// release drops one reference and recycles the task once nobody holds
// it. The last holder clears the payload so recycled tasks do not pin
// caller memory on the free list.
func (p *pool) release(t *task) {
	if t.refs.Add(-1) != 0 {
		return
	}
	t.ranges = nil
	t.fn = nil
	select {
	case p.free <- t:
	default: // free list full; let the GC take it
	}
}

// runRanges claims and executes ranges until the cursor is exhausted.
// Both the caller and every helper execute this same loop, so work
// balances itself at range granularity. Whoever finishes the last
// pending range signals done.
func (t *task) runRanges() {
	n := int64(len(t.ranges))
	for {
		i := t.claim.Add(1) - 1
		if i >= n {
			return
		}
		if err := t.call(t.ranges[i]); err != nil {
			t.fail(int(i), err)
		}
		if t.pending.Add(-1) == 0 {
			t.done <- struct{}{}
		}
	}
}

// call runs fn over one range and returns a panic in it as the range's
// error: on a pool goroutine nothing above would recover it, and the
// process would end.
func (t *task) call(r [2]int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return t.fn(r[0], r[1])
}

// fail records err for range index i, keeping the lowest-indexed error
// so Run's result is deterministic regardless of execution order.
func (t *task) fail(i int, err error) {
	t.mu.Lock()
	if t.err == nil || i < t.failIdx {
		t.err, t.failIdx = err, i
	}
	t.mu.Unlock()
}

// stats snapshots the pool gauges without forcing workers up.
func (p *pool) stats() (workers int, dispatches uint64) {
	return int(p.workers.Load()), p.dispatches.Load()
}
