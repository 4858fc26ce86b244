package experiments

import (
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

func TestRunnerRunsEveryJobOnce(t *testing.T) {
	const n = 100
	var counts [n]int32
	Runner{}.Run(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("job %d ran %d times", i, c)
		}
	}
}

func TestRunnerSequentialFallback(t *testing.T) {
	// Workers=1 must run jobs in order on the calling goroutine.
	var order []int
	Runner{Workers: 1}.Run(5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCollectPreservesJobOrder(t *testing.T) {
	const n = 64
	jobs := make([]func() int, n)
	for i := range jobs {
		i := i
		jobs[i] = func() int { return i * i }
	}
	out := Collect(jobs)
	if len(out) != n {
		t.Fatalf("len = %d", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunnerZeroAndNegativeCounts(t *testing.T) {
	ran := false
	Runner{}.Run(0, func(int) { ran = true })
	Runner{}.Run(-3, func(int) { ran = true })
	if ran {
		t.Fatal("job ran for n <= 0")
	}
}

// TestParallelFanOutDeterministic is the harness's core guarantee: fanning
// independent simulation runs across the pool yields the same results as a
// sequential loop, because each run owns a private Engine and RNG.
func TestParallelFanOutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("figure runs are slow")
	}
	dur := 10 * sim.Second
	run := func(workers int) []int64 {
		loads := []float64{0, 45, 60}
		jobs := make([]func() int64, len(loads))
		for i, pct := range loads {
			pct := pct
			jobs[i] = func() int64 {
				c := RunHostLoad(pct, dur)
				return c.Sent<<32 | c.Dropped
			}
		}
		out := make([]int64, len(jobs))
		Runner{Workers: workers}.Run(len(jobs), func(i int) { out[i] = jobs[i]() })
		return out
	}
	seq := run(1)
	par := run(0)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("run %d diverged: sequential %x vs parallel %x", i, seq[i], par[i])
		}
	}
}
