// Command clustersim drives the scalable-server architecture of §6 as a
// fleet of card complexes — each a PCI segment with a disk NI and a
// scheduler NI, joined by the fleet network — on the partitioned engine.
//
// Usage:
//
//	clustersim -fleet -cards 64 -workers 8   # the multi-card fleet, parallel engine
//	clustersim -fleet-chaos                  # host crashes, switch partitions and
//	                                         # rolling drains, live stream migration
//	clustersim -chaos-sweep                  # severity × fleet-size recovery table
//	clustersim -fleet-obs -cards 64          # in-band DVCM scraping, rollups, merged
//	                                         # incident timeline, stitched traces
//	clustersim -ctrl-chaos -dur 8            # replicated DVCM control plane under
//	                                         # controller crashes and partitions
//
// Every run is exactly one of the five scenarios, each a row of
// experiments.Scenarios served by experiments.Main: none or two of them is a
// usage error (exit 2), and so is a set flag that the picked scenario does
// not read. Stdout and the -out artifacts are the same bytes at any
// -workers. -cpuprofile and -memprofile are complete on every way out.
package main

import (
	"os"

	"repro/internal/experiments"
)

func main() { os.Exit(experiments.Main("clustersim", 30, os.Args[1:], os.Stdout, os.Stderr)) }
