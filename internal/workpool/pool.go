// Package workpool provides a persistent bounded worker pool for
// data-parallel fan-out with a barrier: Run(n, fn) executes fn(0..n-1)
// across the pool's workers and returns when every index is done.
//
// The pool exists because spawning goroutines per batch is measurable
// on hot paths that fan out thousands of times per run (the cluster
// tick advance, the per-core lane advance between causality fences,
// the period analyser's bin sweep): workers are started once and park
// between batches, so the steady-state cost of a batch is one wake-up
// per idle helper and one atomic claim per index, and it allocates
// nothing.
//
// Run may be called concurrently, and from inside another batch's fn
// (on this pool or another). The caller always works on its own batch
// and wakes only helpers that are idle; a helper that is busy elsewhere
// joins later only if indices are still unclaimed. So a caller waits
// only for helpers running one of its indices, never for a helper that
// is busy elsewhere. Shared is the process-wide pool for callers that
// have no pool of their own.
package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a worker pool. The zero value and the nil pool both run
// batches inline on the caller; use New for real workers.
type Pool struct {
	bg     int  // background helpers (workers - 1; the caller participates)
	follow bool // Shared: helpers track GOMAXPROCS-1, started on demand
	once   sync.Once

	mu      sync.Mutex
	started int
	closed  bool
	idle    []chan *batch // wake channels of parked helpers
	open    []*batch      // batches that may still have unclaimed indices
	free    []*batch      // retired batches, reused so Run does not allocate
}

// batch is one Run invocation: the indices [0, n) claimed atomically
// by every participating goroutine.
type batch struct {
	fn   func(int)
	n    int
	next atomic.Int64
	wg   sync.WaitGroup // helpers attached to this batch
}

func (b *batch) drain() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= b.n {
			return
		}
		b.fn(i)
	}
}

// New returns a pool of the given total worker count (including the
// calling goroutine, which always participates in Run). workers <= 1
// starts no goroutines: every batch runs inline on the caller.
func New(workers int) *Pool {
	p := &Pool{}
	if workers > 1 {
		p.bg = workers - 1
		p.mu.Lock()
		p.grow(p.bg)
		p.mu.Unlock()
	}
	return p
}

var (
	sharedOnce sync.Once
	shared     *Pool
)

// Shared returns the process-wide pool. Its helpers number
// GOMAXPROCS-1 at each Run and are started on first need, so a
// caller's batch uses the cores its own goroutine leaves idle; with
// GOMAXPROCS 1 every batch runs inline. Close has no effect on it.
func Shared() *Pool {
	sharedOnce.Do(func() { shared = &Pool{follow: true} })
	return shared
}

// grow starts helpers until there are n. Callers hold p.mu.
func (p *Pool) grow(n int) {
	for ; p.started < n; p.started++ {
		go p.worker(make(chan *batch, 1))
	}
}

// worker joins open batches while any has an index left to claim, then
// parks on its wake channel, through which Run hands it a batch it has
// already been counted into. A closed channel retires it.
func (p *Pool) worker(wake chan *batch) {
	for {
		p.mu.Lock()
		b := p.claimable()
		switch {
		case b != nil:
			b.wg.Add(1)
		case p.closed:
			p.mu.Unlock()
			return
		default:
			p.idle = append(p.idle, wake)
		}
		p.mu.Unlock()
		if b == nil {
			if b = <-wake; b == nil {
				return
			}
		}
		b.drain()
		b.wg.Done()
	}
}

// claimable returns the first open batch with an index left to claim,
// or nil. Callers hold p.mu.
func (p *Pool) claimable() *batch {
	for _, b := range p.open {
		if int(b.next.Load()) < b.n {
			return b
		}
	}
	return nil
}

// helpers returns how many background helpers a batch may use now.
func (p *Pool) helpers() int {
	if p.follow {
		return runtime.GOMAXPROCS(0) - 1
	}
	return p.bg
}

// Workers returns the total worker count, caller included (1 for the
// nil or inline pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.helpers() + 1
}

// Run executes fn(i) for every i in [0, n) and returns once all calls
// completed (a barrier). Indices are claimed dynamically, so uneven
// per-index cost balances across workers. With no helpers — a nil
// pool, workers <= 1, or n == 1 — the batch runs inline in index
// order on the caller. Run is safe for concurrent use and may be
// nested; it must not race with Close.
func (p *Pool) Run(n int, fn func(int)) {
	if n <= 0 {
		return
	}
	h := 0
	if p != nil && n > 1 {
		h = min(p.helpers(), n-1)
	}
	if h <= 0 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.mu.Lock()
	if p.follow {
		p.grow(h)
	}
	var b *batch
	if k := len(p.free); k > 0 {
		b, p.free = p.free[k-1], p.free[:k-1]
	} else {
		b = new(batch)
	}
	b.fn, b.n = fn, n
	b.next.Store(0)
	p.open = append(p.open, b)
	for ; h > 0 && len(p.idle) > 0; h-- {
		last := len(p.idle) - 1
		b.wg.Add(1)
		p.idle[last] <- b // never blocks: a parked helper's channel is empty
		p.idle = p.idle[:last]
	}
	p.mu.Unlock()

	b.drain() // the caller is a worker too

	p.mu.Lock()
	for i, o := range p.open {
		if o == b {
			p.open = append(p.open[:i], p.open[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	b.wg.Wait() // no helper can attach once the batch is unlisted

	p.mu.Lock()
	b.fn = nil
	p.free = append(p.free, b)
	p.mu.Unlock()
}

// Close retires the background workers. Idempotent; Run keeps working
// after Close (inline on the caller).
func (p *Pool) Close() {
	if p == nil || p.bg == 0 {
		return
	}
	p.once.Do(func() {
		p.mu.Lock()
		p.closed, p.bg = true, 0
		for _, wake := range p.idle {
			close(wake)
		}
		p.idle = nil
		p.mu.Unlock()
	})
}
