# Local and CI invocations stay identical: .github/workflows/ci.yml runs
# exactly these targets.

GO ?= go

.PHONY: all fmt vet build lint lint-fixtures test race smoke check results results-check bench bench-compare bench-selftest loc ci

all: ci

# fmt fails (like CI) if any file needs reformatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# lint runs ownsim's custom static-analysis suite (see internal/lint).
lint:
	$(GO) run ./cmd/ownlint ./...

# lint-fixtures runs the analyzer regression tests (golden fixtures,
# seeded violations, broken-package loader) under the race detector.
lint-fixtures:
	$(GO) test -race -count=1 ./internal/lint/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke exercises the observability path end to end: a short traced
# single run, an instrumented sweep, and a live-telemetry run whose
# /metrics endpoint is scraped mid-flight (obscheck -scrape, no curl
# needed) with required scheduler/pool series, whose pprof endpoint
# serves a cpu profile sample and whose /debug/dump endpoint serves a
# mid-flight flight-recorder state dump, then cmd/obscheck verifies
# that every emitted artifact (metrics CSV/NDJSON, trace JSON/NDJSON,
# run manifests, energy attribution CSV, heatmap CSV/SVG,
# latency-breakdown CSV/NDJSON/SVG with the span sum identity,
# token-fairness CSVs with the Jain (0,1] bound, state-dump NDJSON
# framing, Prometheus scrape) actually parses. Set SMOKEDIR to keep
# the artifacts (CI uploads them); by default a temp dir is used and
# removed. The last step writes SHA256SUMS over every deterministic
# artifact (all but the live log, scrape, profile and mid-flight dump;
# manifests are hashed with the SMOKEDIR prefix stripped from their
# "path" entries), so two checkouts prove byte-identity with one
# `diff a/SHA256SUMS b/SHA256SUMS`.
smoke:
	@dir="$(SMOKEDIR)"; \
	if [ -z "$$dir" ]; then dir=$$(mktemp -d); trap "rm -rf $$dir" EXIT; else mkdir -p "$$dir"; fi; \
	set -e; \
	$(GO) run ./cmd/ownsim -cores 256 -warmup 200 -measure 800 -seed 1 \
		-metrics $$dir/run.csv -trace $$dir/run.json -sample 4 \
		-latency-breakdown $$dir/breakdown \
		-manifest $$dir/run-manifest.json >/dev/null; \
	$(GO) run ./cmd/sweep -topo own -cores 256 -points 2 -warmup 200 -measure 800 \
		-metrics $$dir/sweep.ndjson -trace $$dir/sweep-trace.ndjson -sample 4 \
		-latency-breakdown $$dir/sweep-breakdown \
		-manifest $$dir/sweep-manifest.json >/dev/null 2>&1; \
	$(GO) run ./cmd/ownsim -cores 256 -warmup 200 -measure 600000 -seed 1 \
		-listen 127.0.0.1:0 -pprof -energy $$dir/energy.csv -heatmap $$dir/heat \
		-latency-breakdown $$dir/live-breakdown \
		-fairness $$dir/fair -dump-on-exit $$dir/dump \
		-reservoir 4096 -manifest $$dir/live-manifest.json \
		>/dev/null 2>$$dir/live.log & pid=$$!; \
	url=""; for i in $$(seq 1 100); do \
		url=$$(sed -n 's!.*live telemetry on \(http://[^ ]*\)!\1!p' $$dir/live.log); \
		[ -n "$$url" ] && break; sleep 0.1; done; \
	if [ -z "$$url" ]; then echo "smoke: live telemetry address never appeared"; \
		cat $$dir/live.log; kill $$pid 2>/dev/null; exit 1; fi; \
	$(GO) run ./cmd/obscheck -scrape $$url -o $$dir/smoke.prom \
		-require ownsim_engine_compute_ticks -require ownsim_pool_gets; \
	base=$${url%/metrics}; \
	$(GO) run ./cmd/obscheck -fetch "$$base/debug/pprof/profile?seconds=1" -o $$dir/profile.pb.gz; \
	$(GO) run ./cmd/obscheck -fetch "$$base/debug/dump" -o $$dir/dump-live.ndjson; \
	wait $$pid; \
	$(GO) run ./cmd/obscheck $$dir/run.csv $$dir/run.json $$dir/run-manifest.json \
		$$dir/sweep.ndjson $$dir/sweep-trace.ndjson $$dir/sweep-manifest.json \
		$$dir/smoke.prom $$dir/energy.csv $$dir/live-manifest.json \
		$$dir/heat_congestion.csv $$dir/heat_congestion.svg \
		$$dir/heat_energy.csv $$dir/heat_energy.svg \
		$$dir/breakdown.csv $$dir/breakdown.ndjson $$dir/breakdown.svg \
		$$dir/sweep-breakdown.csv $$dir/sweep-breakdown.ndjson $$dir/sweep-breakdown.svg \
		$$dir/live-breakdown.csv $$dir/live-breakdown.ndjson $$dir/live-breakdown.svg \
		$$dir/fair_tiles.csv $$dir/fair_jain.csv $$dir/fair_heatmap.svg \
		$$dir/dump.ndjson $$dir/dump-live.ndjson; \
	for f in $$(ls $$dir); do \
		case $$f in live.log|smoke.prom|profile.pb.gz|dump-live.ndjson|SHA256SUMS) continue;; esac; \
		echo "$$(sed "s|\"path\": \"$$dir/|\"path\": \"|" $$dir/$$f | sha256sum | cut -d' ' -f1)  $$f"; \
	done > $$dir/SHA256SUMS

# check runs the conformance subsystem (internal/check): the quick
# go-test harness (invariant checker, differential reference oracle,
# metamorphic properties), then a seeded checked campaign through both
# CLIs — every ownsim/sweep point runs under the full invariant set and
# exits non-zero on any violation. Set CHECK_CAMPAIGN (optionally to an
# iteration count) to deepen the fuzz loops; the nightly CI job does. The
# differential oracle's third leg runs every workload a second time on a
# network that already ran something else (fabric.DiffRuns), so the
# Conformance tests cover network reuse; the second line names that
# contract: every component's Reset, and runs back to back on one network.
check:
	$(GO) test -run Conformance -count=1 ./...
	$(GO) test -count=1 -run 'Reuse|Reset' ./internal/...
	$(GO) run ./cmd/ownsim -cores 256 -warmup 300 -measure 1500 -seed 101 -check >/dev/null
	$(GO) run ./cmd/ownsim -topo pclos -cores 256 -warmup 300 -measure 1500 -seed 102 -check >/dev/null
	$(GO) run ./cmd/sweep -topo all -cores 256 -points 3 -warmup 300 -measure 1200 -seed 103 -check >/dev/null

# results regenerates results/ — the tables, every figure's text and CSVs,
# the claims ledger — with the one reproduction command at full budget.
# About 12 s on two cores: one core.Evaluation, 221 runs.
results:
	$(GO) run ./cmd/paper -out results all >/dev/null

# results-check proves results/ is what the tree computes today: the same
# command into a temp dir, then every file of results/ diffed byte for byte
# minus the lines that name the run and not its result — "[wrote <path>]"
# (the directory), claims.json's "generated_at" and claims.md's "Generated"
# (the time). One simulation pass: the ledger scores the rows the figures
# simulated. CI runs it on every PR and nightly; the plan's census goes to
# stderr, past the diff.
results-check:
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; \
	$(GO) run ./cmd/paper -out $$tmp all >/dev/null; \
	run='^\[wrote \|^  "generated_at": \|^Generated '; \
	for f in results/*; do \
		grep -v "$$run" $$tmp/$$(basename $$f) > $$tmp/.fresh; \
		grep -v "$$run" $$f | diff - $$tmp/.fresh || { echo "results-check: $$f drifted"; exit 1; }; \
	done; \
	echo "results-check: results/ is byte-identical to a fresh run"

# bench runs the simulator microbenchmarks (engine hot path, packet
# pooling, end-to-end uniform-traffic runs) with allocation reporting.
# Set BENCHOUT to also capture the raw output for bench-compare.
bench:
	@if [ -n "$(BENCHOUT)" ]; then \
		$(GO) test -run '^$$' -bench . -benchmem . | tee "$(BENCHOUT)"; \
	else \
		$(GO) test -run '^$$' -bench . -benchmem .; \
	fi

# bench-compare re-runs the benchmarks and gates allocs/op against the
# checked-in baseline (BENCH_BASELINE.txt). ns/op differences are
# reported but never fail: they vary with hardware. allocs/op is
# deterministic for these fixed-seed benchmarks, arrival producer included.
bench-compare:
	@$(MAKE) --no-print-directory bench BENCHOUT=bench-new.txt
	$(GO) run ./cmd/benchcmp -baseline BENCH_BASELINE.txt bench-new.txt

# bench-selftest vets and tests the end-to-end benchmark harness (bench/
# is its own module, so `go test ./...` at the root never reaches it):
# BENCHMARK.json <-> harness identity, check failures fail the command,
# profile aggregation, compare statuses. Under 5 s; measures nothing.
bench-selftest:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# loc prints ROADMAP's size metric — non-blank, non-comment, non-test,
# non-testdata Go lines — per package under internal/ and cmd/, then the
# simulator core against its support tooling and their ratio, so a
# "net-negative lines" claim is one command run at two commits.
loc:
	@count() { cat "$$@" | grep -v '^\s*$$' | grep -v '^\s*//' | wc -l; }; \
	files() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*'; }; \
	for d in $$(files internal cmd | xargs -n1 dirname | sort -u); do \
		printf '%7d  %s\n' $$(count $$(files $$d -maxdepth 1)) $$d; done; \
	core=$$(count $$(files internal/sim internal/noc internal/router internal/sbus)); \
	support=$$(count $$(files internal/lint internal/probe internal/flightrec internal/obs internal/check cmd/obscheck) \
		internal/fabric/probe.go internal/fabric/flightrec.go internal/fabric/check.go); \
	printf '%7d  total (internal + cmd)\n' $$(count $$(files internal cmd)); \
	printf '%7d  core (sim noc router sbus)\n' $$core; \
	printf '%7d  support (lint probe flightrec obs check cmd/obscheck + fabric installers)\n' $$support; \
	awk "BEGIN { printf \"%7.2f  support / core\n\", $$support / $$core }"

ci: fmt vet build lint race bench-selftest smoke results-check
