GO ?= go

.PHONY: build test vet cross race chaos fuzz-short bench loc procs sgfs-vet alloc-budget check

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 600s ./...

vet:
	$(GO) vet ./...

# Other architectures: 386 (32-bit syscall fields) and arm64, which
# build the secure channel without its amd64 kernels, on the standard
# library alone.
cross:
	GOARCH=386 $(GO) vet ./... && GOARCH=arm64 $(GO) vet ./...

race:
	$(GO) test -race -count=1 -timeout 600s ./...

# Fault-injection suite: link cuts, stalls, dial flakiness and rekeys
# against the secure channel, the reconnecting RPC layer and the proxy
# stack (including the mid-workload link-killer scenario). The pattern
# runs over the whole module, so a chaos test is selected by its name
# wherever it lives.
chaos:
	$(GO) test -race -count=1 -timeout 300s -run 'Chaos|Fault|Reconnect|MidStream|TemporaryAccept|Recovery' ./...

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

# Go lines per package, largest first: non-test lines (assembly
# included), then test lines (in-package and external _test.go files),
# and both totals. The north
# star tracks the first column per package like latency; the second
# tells code that was deleted from code that moved into a test.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}{{range .SFiles}} {{$$.Dir}}/{{.}}{{end}} |{{range .TestGoFiles}} {{$$.Dir}}/{{.}}{{end}}{{range .XTestGoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
	while read pkg files; do \
		echo "$$(cat /dev/null $${files%%|*} | wc -l) $$(cat /dev/null $${files##*|} | wc -l) $$pkg"; \
	done | sort -k1,1nr -k3 | \
	awk 'BEGIN { printf "%7s %7s  package\n", "code", "tests" } { c += $$1; t += $$2; printf "%7d %7d  %s\n", $$1, $$2, $$3 } END { printf "%7d %7d  total\n", c, t }'

# Processes left behind by builds, tests, fuzzing and benchmark runs:
# prints each and fails if there are any. Every pattern is bracketed
# ([g]o test matches "go test" but not itself), so the check cannot
# match the shell that runs it. /[e]xe/ catches `go run` children.
procs:
	@! pgrep -af '[g]o (test|run|build)|[.]test\b|[s]gfs-|/[e]xe/|[.]bench_build|[b]enchmark/run[.]sh|[f]uzzworker'

# Repo-specific analyzers (lock-over-io, lockset-race,
# pool-lifecycle, swallowed-error, lock-order, secret-flow,
# unbounded-alloc, resource-leak; scorecard in DESIGN.md), every one
# over the whole module on every run. Fails on any finding not in
# .sgfsvet-ignore — and on stale allowlist entries (exit 2). CI also
# archives the -json report.
sgfs-vet:
	$(GO) run ./cmd/sgfs-vet -timing ./...

# The alloc budgets: every hot path's heap allocations per operation,
# measured with testing.AllocsPerRun and pinned in the alloc_test.go
# next to its code. No -race: under the race detector sync.Pool drops
# Puts at random, so the budget files build only without it.
alloc-budget:
	$(GO) test -count=1 -run Allocs ./...

# The CI gate: everything that must be green before merging. It ends
# with procs, so a gate run that leaves a test binary, a fuzz worker or
# a benchmark behind fails.
check: build vet cross race chaos sgfs-vet alloc-budget procs
