GO ?= go

.PHONY: all build vet fmt test race bench bench-e2e bench-assoc bench-query bench-insert bench-ingest check reach fuzz soak-short soak soak-core soak-serve lint stcamlint loc testids

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails if any file deviates from gofmt output.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: format check, vet, build, reachability, and the full
# test suite under the race detector.
check: fmt vet build reach race

# reach fails if a package under internal/ is imported by none of the
# programs (cmd, examples, the benchmark) or the stcam facade: code no binary
# runs is kept alive only by its own tests. analyzertest is the one
# exception; only the analyzers' tests import it.
reach:
	@deps=$$($(GO) list -deps ./cmd/... ./examples/... ./benchmark/... .) || exit 1; \
	pkgs=$$($(GO) list ./internal/...) || exit 1; \
	missing=$$(for p in $$pkgs; do \
		[ "$$p" = stcam/internal/analyzers/analyzertest ] && continue; \
		echo "$$deps" | grep -qxF "$$p" || echo "$$p"; \
	done); \
	if [ -n "$$missing" ]; then \
		echo "reach: no program imports these packages:"; echo "$$missing"; exit 1; fi

# loc prints non-test Go lines per package directory, then the total (the
# last line). testdata and hidden directories (build caches) are excluded.
loc:
	@find . -path '*/.*' -prune -o -path '*/testdata' -prune -o \
		-name '*.go' ! -name '*_test.go' -exec wc -l {} + | \
	awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# testids prints how many test IDs the full suite runs: one `=== RUN` line
# per test and subtest. A change that retires tests quotes it before and
# after. Not part of check: it runs the whole suite once more, verbosely.
testids:
	@$(GO) test -count=1 -v ./... | grep -c '^=== RUN'

# stcamlint runs the project's own static analyzer suite (rpcunderlock,
# bufrelease, failclosed, clockinject, metricname — see internal/analyzers)
# over the whole tree. Zero diagnostics outside documented //lint:allow
# suppressions is the bar; any output fails the build.
stcamlint:
	$(GO) run ./cmd/stcamlint ./...

# lint is the full static gate: the stcamlint suite always, plus pinned
# staticcheck and govulncheck when the network allows fetching them (both run
# via `go run <module>@<pin>`, so nothing is added to go.mod). Offline or
# proxy-less environments still get the stcamlint sweep and a warning instead
# of a spurious failure; CI always has the network, so there the pinned tools
# are effectively mandatory.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3
lint: stcamlint
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./... || exit 1; \
	else echo "lint: staticcheck unavailable (offline?); skipped"; fi
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./... || exit 1; \
	else echo "lint: govulncheck unavailable (offline?); skipped"; fi

# soak-short is the PR-time failover gate: the seeded leader-kill chaos soak
# (experiment R19) under the race detector, ~30s. A new leader must take over
# within two lease intervals with zero tracks lost and zero observations
# double-applied.
soak-short:
	$(GO) test -race -count=1 -run 'TestSoakFailover' ./internal/core/

# soak is the nightly long soak: the failover chaos soak at SOAK_FRAMES
# simulated frames plus the full ingest/query/tracking soak suite.
SOAK_FRAMES ?= 3000
soak:
	STCAM_SOAK_FRAMES=$(SOAK_FRAMES) $(GO) test -race -count=1 -timeout 30m -run 'TestSoak' -v ./internal/core/

# soak-core is the nightly matrix name for the core soak above.
soak-core: soak

# soak-serve is the serving-plane churn soak (PR-time CI job serve-soak):
# seeded subscribe/unsubscribe storms, lagging pollers, and mid-stream epoch
# bumps under the race detector, asserting no leaked installed queries and no
# stale cache hits across epochs, plus the concurrent first-subscriber install
# race (one install per shape, the continuous.active gauge exact). SOAK_ROUNDS
# scales the churn soak up for the nightly run (empty = the test's default).
SOAK_ROUNDS ?=
soak-serve:
	STCAM_SOAK_ROUNDS=$(SOAK_ROUNDS) $(GO) test -race -count=1 -timeout 10m -run 'TestSoakServeChurn|TestConcurrentFirstSubscribe' -v ./internal/serve/

# bench regenerates the experiment tables at CI scale.
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-e2e runs the loopback-TCP end-to-end benchmark (benchmark/README.md)
# the way BENCHMARK.json runs it. Empty variables keep the program's defaults:
# no WORKLOAD runs the whole suite, which also appends a row to
# benchmark/BENCH_E2E.json.
WORKLOAD ?=
SEED ?=
SECONDS ?=
bench-e2e:
	bash benchmark/run.sh $(if $(WORKLOAD),-workload $(WORKLOAD)) $(if $(SEED),-seed $(SEED)) $(if $(SECONDS),-seconds $(SECONDS))

# bench-assoc prices the identity-association kernel (dense vs the reference
# model, 0 allocs/op on the match path) and leaves a CPU profile behind:
# `go tool pprof -top vision.test assoc.prof`.
bench-assoc:
	$(GO) test -run '^$$' -bench Associate -benchmem -cpuprofile assoc.prof ./internal/vision

# bench-query prices the store's read path on a store shaped like one
# query.scan worker (full-window heatmap, covered count, wide range, kNN and
# one target's history; allocs reported), the coordinator's hop of a wide range answer (four 24 k-record
# worker answers decoded, merged and framed) and the worker's filter planner
# (plan priced by exact counts, then executed; once, -benchtime=1x), and
# leaves CPU profiles behind:
# `go tool pprof -top stindex.test query.prof`, `go tool pprof -top core.test
# merge.prof`.
bench-query:
	$(GO) test -run '^$$' -bench 'Scan|TargetHistory' -benchmem -cpuprofile query.prof ./internal/stindex
	$(GO) test -run '^$$' -bench RangeMerge -benchmem -cpuprofile merge.prof ./internal/core
	$(GO) test -run '^$$' -bench FilterPlan -benchmem -benchtime=1x ./internal/core

# bench-insert prices one record insert on a store shaped like one
# ingest.plain worker at its retention bound (seal, trim and expiry all live;
# allocs reported) and leaves a CPU profile behind:
# `go tool pprof -top stindex.test insert.prof`.
bench-insert:
	$(GO) test -run '^$$' -bench InsertAtRetention -benchmem -cpuprofile insert.prof ./internal/stindex

# bench-ingest prices one 100-row sequenced batch through the worker's
# ingest handler (index insert, seal and expiry at the retention bound, then
# stage-2 evaluation), featureless and with 32-d features, and the client
# side of one 800-detection frame through the Ingester (coalesce, sort and
# deliver over a 4-worker route table to a transport that acks at once),
# with bytes and allocations reported, and leaves CPU and allocation
# profiles behind:
# `go tool pprof -top core.test ingest.prof`,
# `go tool pprof -sample_index=alloc_space -top core.test ingest.mem.prof`.
bench-ingest:
	$(GO) test -run '^$$' -bench 'WorkerIngest|IngesterFrame' -benchmem -cpuprofile ingest.prof -memprofile ingest.mem.prof ./internal/core

# fuzz gives each fuzz target a short budget (regression corpora always run
# as part of `test`). Targets are discovered per package, so new Fuzz*
# functions join the rotation automatically; `go test -fuzz` only accepts
# one target at a time, hence the loop.
FUZZTIME ?= 10s
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== fuzz $$pkg $$target =="; \
			$(GO) test -run='^$$' -fuzz="^$$target$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
		done; \
	done
