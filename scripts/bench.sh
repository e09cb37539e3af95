#!/bin/sh
# Benchmark snapshot: runs the tsdb microbenchmarks plus a short
# instrumented mirasim run, and composes both into BENCH_tsdb.json —
# the machine-readable perf trajectory the roadmap tracks across PRs.
# Usage: scripts/bench.sh [output.json]
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_tsdb.json}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go test -run '^$' -bench . -benchmem -count 1 ./internal/tsdb/ | tee "$tmp/bench.txt"

# Batched-vs-loop ingest contrast: one 85-tick frame per op, AppendTick
# against the per-record Append loop a pre-batch server ran. The ratio is
# the ingest acceptance the fleet work pins.
awk '
	$1 ~ /^BenchmarkIngestTickLoop(-[0-9]+)?$/ {
		for (i = 3; i < NF; i++) if ($(i + 1) == "ns/record") loop = $i
	}
	$1 ~ /^BenchmarkIngestTickBatch(-[0-9]+)?$/ {
		for (i = 3; i < NF; i++) if ($(i + 1) == "ns/record") batch = $i
	}
	END {
		if (loop && batch)
			printf "bench: tick ingest ns/record — batched %s vs per-record loop %s (%.2fx)\n",
				batch, loop, loop / batch
	}
' "$tmp/bench.txt"

# One simulated week with the observability surface on; its RunReport
# (every counter, gauge, and histogram at exit) is embedded verbatim.
go build -o "$tmp/mirasim" ./cmd/mirasim
"$tmp/mirasim" -start 2014-03-01 -end 2014-03-08 -report "$tmp/report.json" >/dev/null

# go test bench lines look like:
#   BenchmarkAppend-8  3078037  383.8 ns/op  307 B/op  0 allocs/op
# Units seen after the iteration count become JSON fields.
awk '
	/^Benchmark/ {
		printf "%s{\"name\":\"%s\",\"iterations\":%s", sep, $1, $2
		for (i = 3; i < NF; i += 2) {
			unit = $(i + 1)
			gsub("/", "_per_", unit)
			gsub("%", "pct", unit)
			printf ",\"%s\":%s", unit, $i
		}
		printf "}"
		sep = ",\n    "
	}
' "$tmp/bench.txt" >"$tmp/benchmarks.json"

# The campaign dispatcher's per-job protocol overhead — one claim →
# heartbeat → complete round trip over real HTTP, durable completion write
# included — rides with the network snapshot: it lands under
# campaign_benchmarks in BENCH_net.json, preserving miraload's sections.
go test -run '^$' -bench '^BenchmarkClaimCycle$' -benchmem -count 1 ./internal/campaign/ | tee "$tmp/campaign.txt"
go run ./scripts/benchmerge -in "$tmp/campaign.txt" -key campaign_benchmarks -out BENCH_net.json

{
	printf '{\n'
	printf '  "schema": "mira-bench/v1",\n'
	printf '  "generated_at": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "benchmarks": [\n    '
	cat "$tmp/benchmarks.json"
	printf '\n  ],\n'
	printf '  "run_report": '
	sed 's/^/  /' "$tmp/report.json" | sed '1s/^  //'
	printf '\n}\n'
} >"$out"

echo "bench: wrote $out"
