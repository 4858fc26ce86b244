GO ?= go

.PHONY: all test race cross fuzz examples bench repro telemetry slo soak conformance dwcsd-profile build clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The parallel harness fans simulation runs across goroutines; the race
# detector is the canary for any shared state leaking between runs.
race:
	$(GO) test -race ./...

# dwcsd sends a frame per syscall on Linux only (segment_linux.go); every
# other system runs the per-datagram writer, which no Linux test builds.
# Cross-compiling and vetting one of them keeps it from rotting. Offline:
# the standard library is all it needs.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./cmd/dwcsd

# Ten seconds of each native fuzz target (go test -fuzz takes one per run):
# the wire framing a hostile sender can reach and every artifact reader
# behind `tracetool -diff` (one target feeds each input to all seven). The
# seed corpus — including the two datagram sequences that used to crash
# dwcsd -recv — runs as ordinary tests in `make test`.
fuzz:
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzReassemblerIngest$$' -fuzztime 10s
	$(GO) test ./internal/proto -run '^$$' -fuzz '^FuzzUnmarshalMedia$$' -fuzztime 10s
	$(GO) test ./internal/rundiff -run '^$$' -fuzz '^FuzzReaders$$' -fuzztime 10s

# Every program under examples/ is deterministic: run each and compare its
# stdout with the examples/<name>/output.txt it was pinned to.
EXAMPLES := $(notdir $(wildcard examples/*))
examples:
	@set -e; for ex in $(EXAMPLES); do \
		$(GO) run ./examples/$$ex | diff -u examples/$$ex/output.txt - || { echo "examples/$$ex: stdout left output.txt" >&2; exit 1; }; \
	done

# Kernel, task hand-off, per-operation substrate (link, disk, client, host
# CPU), scheduler fast-path and observability record/read micro-benchmarks,
# each reporting allocations, for convenience; `go run ./bench` is the
# judged benchmark.
bench:
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkSimulationThroughput|BenchmarkMissScan|BenchmarkHandoff|BenchmarkLinkSend|BenchmarkDiskRead|BenchmarkClientDeliver|BenchmarkCPUSubmit|BenchmarkSpanRecord|BenchmarkStitchCollect' \
		-benchmem -benchtime 0.5s ./...

# Regenerate every table and figure of the paper's evaluation section.
repro:
	$(GO) run ./cmd/reprogen

# Instrumented observability run: Chrome trace JSON, Prometheus text, CSV
# snapshots, per-stage latency table, folded stacks, and cycle attribution,
# written to telemetry-out/. Inspect with ./cmd/tracetool.
telemetry:
	$(GO) run ./cmd/reprogen -telemetry -dur 20

# Chaos-diagnostics run: drives one protected scheduler card through a task
# hang, a memory leak, and refused late setups with the flight recorder and
# SLO monitor attached; incident dumps, the SLO health table, and the run-diff
# inputs land in slo-out/. See README "Diagnosing a bad run".
slo:
	$(GO) run ./cmd/reprogen -slo -dur 20

# Real-traffic soak: dwcsd paces thousands of in-process UDP client
# sessions through real sockets with flash arrivals and session churn, and
# writes the same artifact format sim runs produce (stages.txt, metrics.csv,
# slo.txt, incidents.txt, metrics.prom) to soak-out/. This shape
# deliberately overcommits the single pacer so DWCS's deadline-drop behavior
# is visible at scale; the summary line is not gated here — the thresholds in
# SOAK_BASELINE.txt are pinned for the short CI shape. Run
# "./bench_compare.sh -soak-only" for the gated version.
soak:
	$(GO) run ./cmd/dwcsd -soak 2000 -period 40ms -dur 5s -churn 0.25 -flash \
		-artifacts soak-out

# Sim-vs-real conformance: regenerate the diagnostics sim artifacts, run the
# gated CI-shape soak, then diff the two directories under wall-clock
# tolerances (stage medians within 50%, one-side-only stages demoted to
# info). Exit 3 means the real daemon regressed past the sim reference.
conformance:
	$(GO) run ./cmd/reprogen -slo -slo-out /tmp/conf-sim -dur 8 > /dev/null
	SOAK_DIR=/tmp/conf-soak ./bench_compare.sh -soak-only
	$(GO) run ./cmd/tracetool -diff -conformance /tmp/conf-sim /tmp/conf-soak

# CPU and heap profile of the sender at the dwcsd_burst shape (256
# phase-aligned streams, 40 ms period, 10 s) against a local receiver.
# Profiles and the binary land in /tmp/dwcsd-profile; read a function with
# `go tool pprof -list 'pacer..loop' /tmp/dwcsd-profile/dwcsd /tmp/dwcsd-profile/cpu.prof`.
dwcsd-profile:
	mkdir -p /tmp/dwcsd-profile
	$(GO) build -o /tmp/dwcsd-profile/dwcsd ./cmd/dwcsd
	/tmp/dwcsd-profile/dwcsd -recv 127.0.0.1:9961 -dur 11s > /dev/null & \
	sleep 0.5; \
	/tmp/dwcsd-profile/dwcsd -dest 127.0.0.1:9961 -streams 256 -period 40ms -dur 10s \
		-cpuprofile /tmp/dwcsd-profile/cpu.prof -memprofile /tmp/dwcsd-profile/mem.prof; \
	wait
	$(GO) tool pprof -top -nodecount 25 /tmp/dwcsd-profile/dwcsd /tmp/dwcsd-profile/cpu.prof

clean:
	$(GO) clean ./...
