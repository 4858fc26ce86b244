#!/bin/sh
# bench_compare.sh — benchstat-style comparison of the kernel/scheduler
# fast-path benchmarks against the committed baseline.
#
#   ./bench_compare.sh             compare current ns/op to BENCH_BASELINE.json,
#                                  hold every scenario to its pinned baseline,
#                                  and run the soak gate
#   ./bench_compare.sh -update     re-measure the benchmarks and re-pin every
#                                  scenario baseline
#   ./bench_compare.sh -soak-only  run just the dwcsd soak gate (CI uses this
#                                  for the real-traffic job; respects SOAK_DIR
#                                  and SOAK_FLAGS)
#
# The bench baseline is a flat JSON object: one "BenchmarkName": ns_per_op
# pair per line, so plain awk can read it and diffs stay line-per-benchmark.
# The simulator baselines (STAGE_, OVERLOAD_, CHAOS_, FLEETOBS_,
# CTRLCHAOS_BASELINE.txt) are exact bytes of deterministic runs; which run,
# at which shape, pins which file is written down once, in the scenario table
# (internal/experiments/scenarios.go), and TestScenarios is the check: byte
# equality with the baseline, byte-identical output at any worker count, and
# the 2% scrape/journal overhead and zero-breach gates. -update runs that
# test in its golden-file update mode. The soak baseline is different in
# kind: dwcsd -soak runs real UDP sockets on a wall clock, so
# SOAK_BASELINE.txt holds goodput/jitter/drop thresholds instead of exact
# bytes, and check_soak gates the summary line against them (set SOAK_DIR to
# keep the run's artifact directory for upload).
set -e
cd "$(dirname "$0")"

BASELINE=BENCH_BASELINE.json
SOAK_BASELINE=SOAK_BASELINE.txt
BENCHES='BenchmarkEngine|BenchmarkSimulationThroughput|BenchmarkMissScan|BenchmarkParallelEngine'

run_benches() {
	go test -run xxx -bench "$BENCHES" -benchmem -benchtime 0.5s ./... 2>/dev/null
}

# scenarios runs the table test over every pinned simulator run; "-update"
# rewrites the baseline files first.
scenarios() {
	go test ./internal/experiments -count=1 -run '^TestScenarios$' "$@"
}

# run_soak is the short CI shape: hundreds of sessions, flash arrivals,
# churn, ~2s of traffic. SOAK_DIR (optional) keeps the artifact directory
# so CI can upload it on failure; SOAK_FLAGS (optional) appends extra dwcsd
# flags — CI's regression self-test injects "-throttle 2ms" through it.
run_soak() {
	soak_out=${SOAK_DIR:-$(mktemp -d)}
	# shellcheck disable=SC2086 # SOAK_FLAGS is intentionally word-split
	go run ./cmd/dwcsd -soak 300 -period 20ms -dur 2s -churn 0.25 -flash \
		-artifacts "$soak_out" ${SOAK_FLAGS:-} 2>/dev/null
}

# check_soak gates the soak summary line against the thresholds pinned in
# SOAK_BASELINE.txt: per-session goodput p50 must stay above the floor,
# jitter p95 and drop ratio below their ceilings.
check_soak() {
	awk -v baseline="$SOAK_BASELINE" '
	BEGIN {
		while ((getline line < baseline) > 0) {
			if (line ~ /^#/ || line == "") continue
			n = split(line, f, " ")
			if (n == 2) gate[f[1]] = f[2]
		}
		if (!("min_goodput_kbps_p50" in gate)) { print "error: no min_goodput_kbps_p50 in " baseline > "/dev/stderr"; bad = 1 }
	}
	/^soak summary:/ {
		found = 1
		for (i = 1; i <= NF; i++) {
			if (split($i, kv, "=") == 2) v[kv[1]] = kv[2] + 0
		}
		printf "soak gate: goodput_kbps_p50=%s (floor %s), jitter_ms_p95=%s (ceiling %s), drop_ratio=%s (ceiling %s)\n", \
			v["goodput_kbps_p50"], gate["min_goodput_kbps_p50"], \
			v["jitter_ms_p95"], gate["max_jitter_ms_p95"], \
			v["drop_ratio"], gate["max_drop_ratio"]
		if (v["goodput_kbps_p50"] < gate["min_goodput_kbps_p50"]) { print "error: session goodput p50 below the soak floor" > "/dev/stderr"; bad = 1 }
		if (v["jitter_ms_p95"] > gate["max_jitter_ms_p95"]) { print "error: jitter p95 above the soak ceiling" > "/dev/stderr"; bad = 1 }
		if (v["drop_ratio"] > gate["max_drop_ratio"]) { print "error: drop ratio above the soak ceiling" > "/dev/stderr"; bad = 1 }
	}
	END {
		if (!found) { print "error: no soak summary line in dwcsd output" > "/dev/stderr"; exit 1 }
		exit bad
	}'
}

if [ "$1" = "-update" ]; then
	scenarios -update
	echo "re-pinned the scenario baselines"
	run_benches | awk '
	/^Benchmark/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		lines[++n] = sprintf("  \"%s\": %s", name, $3)
	}
	END {
		print "{"
		for (i = 1; i <= n; i++) printf "%s%s\n", lines[i], (i < n ? "," : "")
		print "}"
	}' > "$BASELINE"
	echo "wrote $BASELINE"
	exit 0
fi

if [ "$1" = "-soak-only" ]; then
	if [ ! -f "$SOAK_BASELINE" ]; then
		echo "no $SOAK_BASELINE — commit the soak thresholds" >&2
		exit 1
	fi
	run_soak | check_soak
	exit 0
fi

if [ ! -f "$BASELINE" ]; then
	echo "no $BASELINE — run ./bench_compare.sh -update first" >&2
	exit 1
fi

# Simulated time and seeded fault plans, so every pinned artifact must match
# exactly (rerun with -update if a drift is intended).
scenarios

# Soak gate: real sockets on a wall clock, so thresholds instead of exact
# bytes. SOAK_BASELINE.txt is hand-pinned, not regenerated by -update.
if [ -f "$SOAK_BASELINE" ]; then
	run_soak | check_soak
else
	echo "no $SOAK_BASELINE — commit the soak thresholds" >&2
	exit 1
fi

run_benches | awk -v baseline="$BASELINE" '
BEGIN {
	while ((getline line < baseline) > 0) {
		gsub(/[",:{}]/, " ", line)
		n = split(line, f, " ")
		if (n >= 2) base[f[1]] = f[2]
	}
	printf "%-42s %12s %12s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta"
}
/^Benchmark/ {
	name = $1; sub(/-[0-9]+$/, "", name)
	ns = $3
	if (name in base) {
		d = (ns - base[name]) / base[name] * 100
		printf "%-42s %12.2f %12.2f %+8.1f%%\n", name, base[name], ns, d
		seen[name] = 1
	} else {
		printf "%-42s %12s %12.2f %9s\n", name, "(none)", ns, "new"
		missing[name] = 1
	}
}
END {
	bad = 0
	for (name in base) if (!(name in seen)) {
		printf "%-42s %12.2f %12s %9s\n", name, base[name], "(gone)", "removed"
		gone[name] = 1
	}
	for (name in missing) {
		printf "error: benchmark %s has no baseline key in %s (run ./bench_compare.sh -update to pin it)\n", name, baseline > "/dev/stderr"
		bad = 1
	}
	for (name in gone) {
		printf "error: baseline key %s in %s matched no benchmark (stale key, or a benchmark was removed/renamed)\n", name, baseline > "/dev/stderr"
		bad = 1
	}
	exit bad
}'
