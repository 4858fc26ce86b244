package rundiff

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// fuzzReaders asserts every reader in the table is total: any input either
// reads into finite series or returns an ErrParse-wrapped error — it never
// panics, and never half-succeeds into an error AND a result. Every input
// goes to all readers, whichever artifact its seed was written for.
func fuzzReaders(f *testing.F, seeds ...string) {
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, art := range artifacts {
			m, err := art.read(input)
			if err != nil {
				if !errors.Is(err, ErrParse) {
					t.Fatalf("%s: non-ErrParse error: %v", art.name, err)
				}
				if m != nil {
					t.Fatalf("%s: error with non-nil result", art.name)
				}
				continue
			}
			if m == nil {
				t.Fatalf("%s: neither a result nor an error", art.name)
			}
			for k, v := range m {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s: series %q = %v", art.name, k, v)
				}
			}
		}
	})
}

var (
	metricsSeeds = []string{
		"time_ms,component,metric,value\n1000,nic,tx_frames_total,100\n",
		"time_ms,component,metric,value\n",
		"",
		"time_ms,component,metric,value\n1000,nic,x\n",
		"time_ms,component,metric,value\n,,,\n",
		"time_ms,component,metric,value\nNaN,a,b,Inf\n",
		"time_ms,component,metric,value\n1e309,a,b,1e-309\n",
		"garbage",
	}
	ladderSeeds = []string{
		"load mult max_rung\nno web load 4 drop-B 1 2 3 4 5 6 7 8 9 10\n",
		"x 0 none 0 0 0 0 0 0 0 0 0 0",
		"",
	}
	stagesSeeds = []string{
		"stage count total_ms mean_us p50_us p95_us max_us\ndisk 1 2 3 4 5 6\n",
		"disk 1 2 3 4 5 6 7 8",
		"",
	}
	// slo.txt, cycles.txt, rollup.txt, timeline.txt
	otherSeeds = []string{
		sloA,
		"slo c: health=ok, 1 eval(s), 0 transition(s), NaN violation(s)\n",
		cyclesA,
		rollupFixture(4.0, true),
		timelineFixture(2),
		"incident timeline: 1 event(s)\nt src\n",
	}
)

func FuzzParseMetricsCSV(f *testing.F) { fuzzReaders(f, metricsSeeds...) }
func FuzzParseLadder(f *testing.F)     { fuzzReaders(f, ladderSeeds...) }
func FuzzParseStages(f *testing.F)     { fuzzReaders(f, stagesSeeds...) }

// FuzzReaders starts from every artifact's seeds; it is the target make fuzz
// runs.
func FuzzReaders(f *testing.F) {
	fuzzReaders(f, slices.Concat(metricsSeeds, ladderSeeds, stagesSeeds, otherSeeds)...)
}
