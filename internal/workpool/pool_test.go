package workpool

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndex checks each index runs exactly once, for
// pool sizes and batch sizes around the inline/pooled boundary.
func TestRunCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 16} {
		p := New(workers)
		for _, n := range []int{0, 1, 2, 3, 64, 1000} {
			hits := make([]atomic.Int64, n)
			p.Run(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestNilAndZeroPool pins the inline fallbacks: the nil pool and the
// zero value both run batches on the caller, in index order.
func TestNilAndZeroPool(t *testing.T) {
	var order []int
	var nilPool *Pool
	nilPool.Run(3, func(i int) { order = append(order, i) })
	var zero Pool
	zero.Run(3, func(i int) { order = append(order, i) })
	want := []int{0, 1, 2, 0, 1, 2}
	for i, v := range want {
		if order[i] != v {
			t.Fatalf("inline order = %v, want %v", order, want)
		}
	}
	if nilPool.Workers() != 1 || zero.Workers() != 1 {
		t.Errorf("inline Workers() = %d/%d, want 1/1", nilPool.Workers(), zero.Workers())
	}
	nilPool.Close()
	zero.Close()
}

// TestCloseIsIdempotentAndRunSurvives checks Close can be called
// repeatedly and that Run after Close falls back to inline execution.
func TestCloseIsIdempotentAndRunSurvives(t *testing.T) {
	p := New(4)
	if p.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", p.Workers())
	}
	p.Close()
	p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers() after Close = %d, want 1", p.Workers())
	}
	var count atomic.Int64
	p.Run(8, func(int) { count.Add(1) })
	if count.Load() != 8 {
		t.Fatalf("Run after Close executed %d of 8 indices", count.Load())
	}
}

// TestUnevenWork checks the dynamic index claiming balances a batch
// whose early indices are much more expensive than the rest.
func TestUnevenWork(t *testing.T) {
	p := New(4)
	defer p.Close()
	var sum atomic.Int64
	p.Run(100, func(i int) {
		if i < 4 {
			for k := 0; k < 1000; k++ {
				sum.Add(1)
			}
			return
		}
		sum.Add(1)
	})
	if got := sum.Load(); got != 4*1000+96 {
		t.Fatalf("sum = %d, want %d", got, 4*1000+96)
	}
}

// TestConcurrentAndNestedRun has many goroutines share one pool at
// once, each batch also running nested batches on the same pool from
// inside fn; every index of every batch must run exactly once and no
// caller may deadlock waiting on a helper busy elsewhere.
func TestConcurrentAndNestedRun(t *testing.T) {
	for _, p := range []*Pool{New(3), Shared()} {
		const callers, outer, inner = 8, 16, 32
		hits := make([]atomic.Int64, callers*outer*inner)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Run(outer, func(i int) {
					p.Run(inner, func(j int) { hits[(c*outer+i)*inner+j].Add(1) })
				})
			}()
		}
		wg.Wait()
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("index %d ran %d times", i, got)
			}
		}
		p.Close()
	}
}

// TestSharedFollowsGOMAXPROCS checks the shared pool sizes itself at
// each Run: inline at GOMAXPROCS 1, GOMAXPROCS workers otherwise.
func TestSharedFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := Shared().Workers(); got != procs {
			t.Errorf("GOMAXPROCS %d: Shared().Workers() = %d", procs, got)
		}
		var count atomic.Int64
		Shared().Run(100, func(int) { count.Add(1) })
		if count.Load() != 100 {
			t.Fatalf("GOMAXPROCS %d: ran %d of 100 indices", procs, count.Load())
		}
	}
}
