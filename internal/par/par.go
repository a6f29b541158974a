// Package par provides the tiny deterministic fork-join primitive that
// parallel network construction (cell index, graph, hierarchy) shares.
// It deliberately has no dependencies so every construction layer can
// use it.
//
// Determinism contract: Do and Blocks only decide WHICH goroutine executes
// a unit of work, never WHAT the unit computes or the order results are
// merged in. Callers must keep per-unit work pure with respect to shared
// state (disjoint writes, snapshot reads) and merge results in unit order;
// under that discipline any worker count produces byte-identical output.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve normalizes a worker-count knob: values <= 0 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Do executes fn(0..n-1) using up to workers goroutines. Work units are
// handed out by an atomic counter, so scheduling is dynamic but each unit
// runs exactly once. workers <= 1 (after Resolve) runs inline with no
// goroutines at all, which keeps the serial path allocation-free.
func Do(workers, n int, fn func(i int)) {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// Blocks executes fn(lo, hi) over contiguous blocks covering [0, n) using
// up to workers goroutines. Blocks are sized so each worker sees a handful
// of them (dynamic load balancing without per-element dispatch overhead).
func Blocks(workers, n int, fn func(lo, hi int)) {
	workers = Resolve(workers)
	if workers <= 1 || n <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	block := n / (workers * 4)
	if block < 1 {
		block = 1
	}
	nb := (n + block - 1) / block
	Do(workers, nb, func(b int) {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// NumCPU reports the scheduler's current parallelism target. Exposed so
// callers outside this package don't need to import runtime just to pick
// a default.
func NumCPU() int { return runtime.GOMAXPROCS(0) }
