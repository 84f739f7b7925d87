# Local and CI invocations stay identical: .github/workflows/ci.yml runs
# exactly these targets.

GO ?= go

.PHONY: all fmt vet build lint test test-386 race check campaign results results-check bench-selftest loc ci

all: ci

# fmt fails (like CI) if any file needs reformatting.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# vet also type-checks a second architecture, arm64, where Go may fuse
# floating-point multiply-adds: nothing that decides a simulated event may
# depend on that (the arrival sampler draws with integers only). The last
# leg builds the four commands (paper, ownsim, sweep, trace) for arm64 and
# fails on any fused multiply-add in a function of this module, so their
# printed digits round as on amd64; a site rounds its product with an
# explicit float64(...).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	@tmp=$$(mktemp -d); trap "rm -rf $$tmp" EXIT; set -e; \
	for c in paper ownsim sweep trace; do \
		GOARCH=arm64 $(GO) build -o $$tmp/$$c ./cmd/$$c; \
		fused=$$($(GO) tool objdump $$tmp/$$c | awk '/^TEXT/{f=$$2} /\t(FMADD|FMSUB|FNMADD|FNMSUB)[SD] / && f ~ /^ownsim\//{s[f]=1} END{for(k in s) print k}'); \
		if [ -n "$$fused" ]; then echo "vet: arm64 $$c fuses floating-point multiply-adds in:"; echo "$$fused"; exit 1; fi; \
	done; \
	echo "vet: arm64 paper, ownsim, sweep and trace hold no fused multiply-add"

build:
	$(GO) build ./...

# lint runs ownsim's custom static-analysis suite (see internal/lint)
# under the race detector: the analyzer regression tests (golden
# fixtures, seeded violations, broken-package loader) and
# TestRealTreeClean, which lints the repository and prints every finding.
lint:
	$(GO) test -race -count=1 ./internal/lint/...

test:
	$(GO) test ./...

# test-386 runs the suite on a 32-bit platform (no cgo, so no C toolchain
# is needed): int is 32 bits there.
test-386:
	CGO_ENABLED=0 GOARCH=386 $(GO) test ./...

race:
	$(GO) test -race ./...

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

# campaign runs the conformance tests at campaign depth (CHECK_CAMPAIGN=1:
# 64 random up*/down* networks, the kilo-core DiffRuns legs), about 16 s on
# two cores. CI runs it on every PR, so a red campaign shows on the change
# that causes it; nightly runs the same tests verbosely.
campaign:
	CHECK_CAMPAIGN=1 $(GO) test -run Conformance -count=1 ./...

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
	support=$$(count $$(files internal/lint internal/probe internal/flightrec internal/obs internal/check) \
		internal/fabric/probe.go internal/fabric/flightrec.go internal/fabric/check.go); \
	printf '%7d  total (internal + cmd)\n' $$(count $$(files internal cmd)); \
	printf '%7d  core (sim noc router sbus)\n' $$core; \
	printf '%7d  support (lint probe flightrec obs check + fabric installers)\n' $$support; \
	awk "BEGIN { printf \"%7.2f  support / core\n\", $$support / $$core }"

ci: fmt vet build lint race test-386 campaign bench-selftest results-check
