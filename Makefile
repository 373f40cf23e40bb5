GO ?= go

.PHONY: build test vet race chaos fuzz-short bench loc alloc-baseline sgfs-vet alloc-budget check

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 600s ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -count=1 -timeout 600s ./...

# Fault-injection suite: link cuts, stalls, and dial flakiness against
# the reconnecting channel, the RPC layer, and the proxy stack
# (including the mid-workload link-killer scenario).
chaos:
	$(GO) test -race -count=1 -timeout 300s -run 'Chaos|Fault|Reconnect|MidStream|TemporaryAccept|Recovery' \
		./internal/netem/ ./internal/oncrpc/ ./internal/proxy/

# Short fuzzing pass: every Fuzz* target in the module runs for
# FUZZTIME (default ~10s). This catches decoder panics and round-trip
# regressions cheaply on every merge; long campaigns are run manually
# with a bigger -fuzztime. `go test -fuzz` takes one target per
# invocation, hence the loop.
FUZZTIME ?= 10s
fuzz-short:
	@set -e; \
	for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg 2>/dev/null | grep '^Fuzz' || true); do \
			echo "=== fuzz $$pkg $$target ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# The repo's one benchmark in suite mode (BENCHMARK.json,
# benchmark/README.md): the seven paper-shaped workloads, untraced and
# traced, built and run under .bench_build/. The paper-figure suite
# stays in cmd/sgfs-bench.
bench:
	bash benchmark/run.sh

# Non-test Go lines per package, largest first. The north star tracks
# line count per package like latency; this is the number it means.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read pkg files; do echo "$$(cat $$files | wc -l) $$pkg"; done | sort -k1,1nr -k2 | \
	awk '{ t += $$1; printf "%7d  %s\n", $$1, $$2 } END { printf "%7d  total\n", t }'

# Recompute the hot-path alloc census and refresh the committed
# baseline the CI alloc budget compares against: per-root totals and
# per-(file, func, kind) bucket counts. The per-site census it is cut
# from (-alloc-census, also a CI artifact) is not committed.
alloc-baseline:
	$(GO) run ./cmd/sgfs-vet -alloc-census -alloc-baseline .sgfsvet-allocs.json > /dev/null

# Repo-specific analyzers (xdr-symmetry, lock-over-io, lockset-race,
# pool-lifecycle, atomic-misuse, swallowed-error, lock-order,
# ctx-deadline, goroutine-leak, replay-table-sync, secret-flow,
# unbounded-alloc, weak-rand, resource-leak, retry-safety,
# alloc-hotpath; scorecard in DESIGN.md). Fails on any finding not in
# .sgfsvet-ignore — and on stale allowlist entries (exit 2). CI also
# archives the -json report.
sgfs-vet:
	$(GO) run ./cmd/sgfs-vet -all ./...

# The alloc budget gate: the fresh hot-path census must fit the
# committed .sgfsvet-allocs.json baseline (see `make alloc-baseline`).
alloc-budget:
	$(GO) run ./cmd/sgfs-vet -alloc-budget

# The CI gate: everything that must be green before merging.
check: build vet race chaos sgfs-vet alloc-budget
