package sim

import (
	"testing"
	"testing/quick"
)

// Property: any interleaving of pushes and pops returns items in push order,
// exactly like a reference slice.
func TestFIFOMatchesSlice(t *testing.T) {
	f := func(ops []bool) bool {
		var q FIFO[int]
		var ref []int
		next := 0
		for _, push := range ops {
			if push || len(ref) == 0 {
				q.Push(next)
				ref = append(ref, next)
				next++
			} else {
				if got := q.Pop(); got != ref[0] {
					return false
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		for len(ref) > 0 {
			if q.Pop() != ref[0] {
				return false
			}
			ref = ref[1:]
		}
		return q.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A deep queue that keeps its depth — one push per pop — reuses its backing
// array.
func TestFIFODeepSteadyStateDoesNotAllocate(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	for i := 0; i < 1000; i++ {
		q.Push(v)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 5000; i++ {
			q.Pop()
			q.Push(v)
		}
	})
	if allocs != 0 || q.Len() != 1000 {
		t.Errorf("%v allocs per 5000 pop/push pairs at depth %d, want 0 at 1000", allocs, q.Len())
	}
}
