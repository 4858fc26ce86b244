// Command clustersim drives the scalable-server architecture of §6 as a
// fleet of card complexes — each a PCI segment with a disk NI and a
// scheduler NI, joined by the fleet network — on the partitioned engine.
//
// Usage:
//
//	clustersim -fleet -cards 64 -workers 8     # partitioned multi-card fleet
//	                                           # on the parallel engine;
//	                                           # artifacts are byte-identical
//	                                           # at any -workers count
//	clustersim -fleet-chaos                    # correlated failure domains on
//	                                           # the fleet: host crashes, switch
//	                                           # partitions, rolling drains, and
//	                                           # live stream migration; same
//	                                           # byte-identical contract
//	clustersim -chaos-sweep                    # severity × fleet-size recovery
//	                                           # table over ten chaos fleets
//	clustersim -fleet-obs -cards 64            # in-band observability plane
//	                                           # over the chaos fleet: DVCM
//	                                           # metric scraping, fleet rollups,
//	                                           # merged incident timeline, and
//	                                           # cross-migration trace stitching;
//	                                           # same byte-identical contract
//	clustersim -ctrl-chaos -dur 8              # replicated DVCM control plane
//	                                           # under controller faults: the
//	                                           # primary is killed mid-migration
//	                                           # and the replica pair is split;
//	                                           # the standby fences the fleet,
//	                                           # reconciles its journal, and
//	                                           # takes over; same byte-identical
//	                                           # contract
//
// Every run is exactly one of the five scenarios, each a row of
// experiments.Scenarios: none or two of them is a usage error (exit 2), and
// so is a set flag that the picked scenario does not read. -cpuprofile and
// -memprofile are complete on every way out.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/sim"
)

// The flags every fleet row reads, and every chaos-fleet row.
const (
	fleetFlags = "dur cards fleet-streams fleet-out"
	chaosFlags = fleetFlags + " host-crashes net-partitions rolling-drains fault-seed"
)

// reads lists the flags each scenario reads besides its own, -workers and
// the profiles: a set flag the picked scenario does not read is a usage error.
var reads = map[string]string{
	"fleet":       fleetFlags,
	"fleet-chaos": chaosFlags,
	"fleet-obs":   chaosFlags + " stress-pct",
	"ctrl-chaos":  chaosFlags + " ctrl-crashes ctrl-partitions",
	"chaos-sweep": "",
}

func main() {
	durSec := flag.Int("dur", 30, "streaming duration (seconds)")
	cards := flag.Int("cards", 8, "card complexes in the fleet (every scenario but -chaos-sweep)")
	fleetStreams := flag.Int("fleet-streams", 2, "streams sourced per card (every scenario but -chaos-sweep)")
	workers := flag.Int("workers", 0, "worker pool for the parallel engine and the chaos sweep's fleets; 0 = GOMAXPROCS, 1 = sequential")
	fleetOut := flag.String("fleet-out", "", "artifact directory (every scenario but -chaos-sweep; empty = stdout only)")
	hostCrashes := flag.Int("host-crashes", 0, "host-crash faults to draw (-fleet-chaos, -fleet-obs, -ctrl-chaos); 0 = default, negative = none")
	netPartitions := flag.Int("net-partitions", 0, "switch-partition faults to draw (-fleet-chaos, -fleet-obs, -ctrl-chaos); 0 = default, negative = none")
	rollingDrains := flag.Int("rolling-drains", 0, "rolling-drain faults to draw (-fleet-chaos, -fleet-obs, -ctrl-chaos); 0 = default, negative = none")
	faultSeed := flag.Int64("fault-seed", 0, "chaos plan seed (-fleet-chaos, -fleet-obs, -ctrl-chaos); 0 = derived from the fleet seed")
	ctrlCrashes := flag.Int("ctrl-crashes", 0, "controller-crash faults to draw (with -ctrl-chaos); 0 = default, negative = none")
	ctrlPartitions := flag.Int("ctrl-partitions", 0, "replica-pair partition faults to draw (with -ctrl-chaos); 0 = default, negative = none")
	stressPct := flag.Int("stress-pct", 0, "fill every card's budget to this %% mid-run to exercise scrape shedding (with -fleet-obs); 0 = off")
	// The scenarios are rows of the experiments table, each selected by the
	// flag the row names.
	selected := map[string]*bool{}
	for _, s := range experiments.Scenarios {
		if s.Cmd == "clustersim" {
			selected[s.Name] = flag.Bool(s.Name, false, s.Help)
		}
	}
	cpuProfile, memProfile := profiling.Flags()
	flag.Parse()
	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		os.Exit(1)
	}
	// Every way out goes through exit, so the profiles are complete.
	exit := profiling.Exit("clustersim", stopProfiles)

	var picked []experiments.Scenario
	var names []string
	for _, s := range experiments.Scenarios {
		if on := selected[s.Name]; on != nil {
			names = append(names, "-"+s.Name)
			if *on {
				picked = append(picked, s)
			}
		}
	}
	// Two scenarios would run something other than what was asked (the
	// first would win), none runs nothing, and a flag the scenario does not
	// read would change nothing.
	var misuse string
	switch {
	case len(picked) > 1:
		misuse = fmt.Sprintf("-%s and -%s: pick one scenario", picked[0].Name, picked[1].Name)
	case len(picked) == 0:
		misuse = "pick one scenario: " + strings.Join(names, ", ")
	default:
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			if selected[f.Name] == nil && !slices.Contains(strings.Fields("workers cpuprofile memprofile "+reads[picked[0].Name]), f.Name) {
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			misuse = fmt.Sprintf("-%s does not read %s", picked[0].Name, strings.Join(ignored, ", "))
		}
	}
	if misuse != "" {
		fmt.Fprintln(os.Stderr, "clustersim:", misuse)
		flag.Usage()
		exit(2)
	}
	// Everything on stdout and under -fleet-out is byte-identical at any
	// -workers count; engine diagnostics go to stderr.
	err = picked[0].RunTo(cluster.FleetConfig{
		Cards: *cards, StreamsPerCard: *fleetStreams,
		Dur: sim.Time(*durSec) * sim.Second, Workers: *workers,
		HostCrashes: *hostCrashes, NetPartitions: *netPartitions,
		RollingDrains: *rollingDrains, FaultSeed: *faultSeed,
		CtrlCrashes: *ctrlCrashes, CtrlPartitions: *ctrlPartitions,
		StressPct: *stressPct,
	}, *fleetOut, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "clustersim:", err)
		exit(1)
	}
	exit(0)
}
