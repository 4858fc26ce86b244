package experiments

import (
	"runtime"
	"sync"
)

// Runner fans independent simulation runs across a worker pool. Every run
// owns a private sim.Engine and RNG (each Run* helper constructs its own),
// so per-run determinism is untouched by the fan-out; results are collected
// by index, so callers observe exactly the order a sequential loop would
// have produced and reports stay byte-identical.
//
// The zero value uses GOMAXPROCS workers. Workers > 0 caps the pool (1
// recovers the sequential harness, useful for A/B timing).
type Runner struct {
	Workers int
}

// Run executes job(0) … job(n-1) across the pool and returns once all have
// completed. Jobs must not share mutable state; each typically builds and
// drains its own Engine.
func (r Runner) Run(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// DefaultWorkers caps the default pool used by Collect (0 = GOMAXPROCS).
// Main sets it from -workers, so one knob governs every fan-out in a run,
// and the benchmark sets it to 1; results are collected by index either
// way, so the setting never changes output bytes.
var DefaultWorkers int

// Collect runs every job on the default pool and returns their results in
// job order, independent of completion order.
func Collect[T any](jobs []func() T) []T {
	return CollectWith(Runner{Workers: DefaultWorkers}, jobs)
}

// CollectWith is Collect on an explicit pool — the determinism canary runs
// the same jobs on Runner{Workers: 1} and a parallel pool and asserts the
// outputs are byte-identical.
func CollectWith[T any](r Runner, jobs []func() T) []T {
	out := make([]T, len(jobs))
	r.Run(len(jobs), func(i int) {
		out[i] = jobs[i]()
	})
	return out
}
