# Tier-1 verification entry point: `make check` runs exactly what CI and
# the roadmap expect before a change lands.
GO ?= go

.PHONY: check fmt vet lint build test race bench bench-net smoke fuzz-smoke

check: fmt vet lint build race fuzz-smoke smoke

# fmt fails when any Go file in the tree is not gofmt-formatted.
fmt:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# lint statically rejects metric registrations whose names violate the
# mira_[a-z_]+ namespace rule (the obs registry also panics at runtime),
# span name literals that break [a-z][a-z0-9_.]* or register at more than
# one site, and exemplar label keys other than a single trace_id.
lint:
	$(GO) run scripts/lint_metrics.go

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race is the tier-1 test gate: the tsdb engine is exercised by a
# concurrent ingest+query test that only means something under -race.
race:
	$(GO) test -race ./...

# smoke is the end-to-end persistence round trip: mirasim -data flushes
# segment files, miraanalyze -data reopens them warm, the figures must match
# the CSV in-memory path, and a corrupted segment must fail descriptively.
smoke:
	./scripts/smoke.sh

# fuzz-smoke gives each fuzz target a short budget: segment parsing, block
# decoding, the network frame parser, the trace-header parser, and the
# campaign job-spec/claim envelopes must reject arbitrary bytes cleanly
# (wrapped sentinel errors for the wire formats, a fresh root trace for
# X-Mira-Trace), never a panic. The go fuzzer runs one target per
# invocation.
fuzz-smoke:
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzOpenSegment$$' -fuzztime 10s
	$(GO) test ./internal/tsdb/ -run '^$$' -fuzz '^FuzzDecodeBlock$$' -fuzztime 10s
	$(GO) test ./internal/telemetrynet/ -run '^$$' -fuzz '^FuzzDecodeIngestFrame$$' -fuzztime 10s
	$(GO) test ./internal/obs/ -run '^$$' -fuzz '^FuzzParseTraceHeader$$' -fuzztime 10s
	$(GO) test ./internal/telemetrynet/ -run '^$$' -fuzz '^FuzzTraceHeaderHandling$$' -fuzztime 10s
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz '^FuzzDecodeJobSpec$$' -fuzztime 10s
	$(GO) test ./internal/campaign/ -run '^$$' -fuzz '^FuzzParseClaimResponse$$' -fuzztime 10s

# bench reports tsdb ingest throughput, compressed bytes/sample, and
# range-query scan performance, then snapshots the numbers (plus an
# instrumented one-week mirasim RunReport) into BENCH_tsdb.json. The
# campaign dispatcher's claim-cycle benchmark is folded into BENCH_net.json
# alongside the network latency sections.
bench:
	./scripts/bench.sh

# bench-net load-tests the network telemetry service: a miramon -serve
# instance over a simulated two-week store, hammered by miraload's 1000
# concurrent clients. Latency percentiles land in BENCH_net.json.
bench-net:
	./scripts/bench_net.sh
