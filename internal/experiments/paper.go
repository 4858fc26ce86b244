package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
)

// runPaper is the paper's §4 evaluation, the row a bare reprogen runs:
// Tables 1–5, the headline and the scaling study, then Figures 6–10 and the
// jitter comparison. The nine runs are independent simulations and fan out on
// the pool; the figure curves are the artifact directory, sorted by name.
func runPaper(cfg cluster.FleetConfig) Output {
	tables := []func() *Result{
		RunTable1, RunTable2, RunTable3, RunTable4, RunTable5, RunHeadline,
		func() *Result { _, r := RunStreamScaling([]int{4, 16, 64, 256}); return r },
	}
	var (
		host    *HostFigures
		ni      *NIFigures
		results = make([]*Result, len(tables))
	)
	// The figure bundles take longest, so they start first.
	Runner{Workers: cfg.Workers}.Run(2+len(tables), func(i int) {
		switch i {
		case 0:
			host = RunHostFigures(cfg.Dur)
		case 1:
			ni = RunNIFigures(cfg.Dur / 2)
		default:
			results[i-2] = tables[i-2]()
		}
	})
	results = append(results, host.Figure6(), host.Figure7(), host.Figure8(),
		ni.Figure9(), ni.Figure10(), JitterComparison(host, ni))
	var stdout strings.Builder
	for _, r := range results {
		stdout.WriteString(r.String())
	}

	var files []File
	curves := map[string]*StreamCurves{"ni-noload": ni.NoLoad, "ni-load60": ni.Loaded60}
	for pct, run := range host.Runs {
		prefix := fmt.Sprintf("host-load%.0f", pct)
		curves[prefix] = run
		files = append(files, File{prefix + "-util.csv", run.Util.CSV()})
	}
	for prefix, run := range curves {
		for name, s := range run.BW {
			files = append(files, File{fmt.Sprintf("%s-bw-%s.csv", prefix, name), s.CSV()})
		}
		for name, d := range run.QDelay {
			files = append(files, File{fmt.Sprintf("%s-qdelay-%s.csv", prefix, name), d.CSV()})
		}
	}
	return Output{Stdout: stdout.String(), Files: byName(files)}
}

// byName sorts files written from map iterations, so the contract compares
// them in one order.
func byName(files []File) []File {
	slices.SortFunc(files, func(a, b File) int { return strings.Compare(a.Name, b.Name) })
	return files
}
