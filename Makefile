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

# Go lines per package, largest first: non-test lines, then test lines
# (in-package and external _test.go files), and both totals. The north
# star tracks the first column per package like latency; the second
# tells code that was deleted from code that moved into a test.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}} |{{range .TestGoFiles}} {{$$.Dir}}/{{.}}{{end}}{{range .XTestGoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read pkg files; do \
		echo "$$(cat /dev/null $${files%%|*} | wc -l) $$(cat /dev/null $${files##*|} | wc -l) $$pkg"; \
	done | sort -k1,1nr -k3 | \
	awk 'BEGIN { printf "%7s %7s  package\n", "code", "tests" } { c += $$1; t += $$2; printf "%7d %7d  %s\n", $$1, $$2, $$3 } END { printf "%7d %7d  total\n", c, t }'

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
