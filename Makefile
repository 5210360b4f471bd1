# The verify target is the single source of truth for "does this tree
# pass": CI runs exactly `make verify`, so local runs and the gate
# cannot drift. It mirrors the tier-1 command (go build && go test)
# plus the formatting gate, and vets and tests the benchmark in bench/,
# a module of its own that `./...` does not reach. Examples may import
# only what an external module can: the facade, never internal/.

GO ?= go

# Coverage floors, set just under the baseline measured when the gate
# was added (PR 5, query/sketch floors added in PR 6) so coverage can
# only ratchet upward. Raise a floor when a PR meaningfully lifts a
# package; never lower one to make a build pass.
COVER_FLOORS = internal/core:95 internal/tsdb:83 internal/tsdb/mmapstore:85 internal/wal:70 \
	internal/sketch:90 internal/query:92

# Allocation budgets: pkg:benchmark:max allocs/op for hot paths that
# must allocate, but no more than they do now. Each number is what the
# benchmark reported when its budget was set. Like the coverage floors
# they only ratchet: lower one when a change cuts allocations, never
# raise one to make a build pass.
ALLOC_BUDGETS = internal/sketch:BenchmarkBuildBlock/rough:4 internal/sketch:BenchmarkBuildBlock/smooth:4

.PHONY: verify fmt-check build test race bench-smoke cover-check alloc-check oracle-sweep docs-check

verify: fmt-check
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Imports " "}} {{join .TestImports " "}}' ./examples/... | grep 'github.com/pla-go/pla/internal/'); \
	if [ -n "$$bad" ]; then echo "verify: examples import internal/ packages:"; echo "$$bad"; exit 1; fi
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(GO) vet -C bench . && $(GO) test -C bench .

fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One short pass of the benchmark in bench/ (every workload, the
# correctness gate included), so a build that breaks the harness or
# trips its gate fails here rather than in a full measurement.
bench-smoke:
	bash bench/run.sh -seconds 1 -o bench-smoke.json

# Allocation ratchet for the ingest and query hot loops: every
# *ZeroAlloc benchmark (frame/record encode, shard apply, datagram
# header, v2 extent decode, sender-side decimation) must report exactly
# 0 allocs/op, and every benchmark in ALLOC_BUDGETS at most its budget,
# or the build fails. A new allocation on these paths is a perf
# regression even when every test still passes.
alloc-check:
	@out=$$($(GO) test -run NONE -bench ZeroAlloc -benchmem -benchtime 10000x \
		./internal/core/ ./internal/encode/ ./internal/server/ ./internal/udpingest/ ./internal/tsdb/mmapstore/); \
	echo "$$out" | grep -E "^Benchmark" || { echo "alloc-check: no ZeroAlloc benchmarks ran"; exit 1; }; \
	echo "$$out" | awk '/allocs\/op/ { a=""; for (i=1;i<=NF;i++) if ($$i=="allocs/op") a=$$(i-1); \
		if (a+0 > 0) { print "alloc-check: " $$1 " allocates (" a " allocs/op)"; fail=1 } } \
		END { exit fail }' || exit 1; \
	fail=0; \
	for spec in $(ALLOC_BUDGETS); do \
		pkg=$${spec%%:*}; rest=$${spec#*:}; bench=$${rest%:*}; max=$${rest##*:}; \
		line=$$($(GO) test -run NONE -bench "^$$bench$$" -benchmem -benchtime 2000x ./$$pkg | grep -E "^$$bench(-[0-9]+)? "); \
		a=$$(echo "$$line" | awk '{ for (i=1;i<=NF;i++) if ($$i=="allocs/op") print $$(i-1) }'); \
		if [ -z "$$a" ]; then echo "alloc-check: $$bench did not run in $$pkg"; fail=1; \
		elif [ "$$a" -gt "$$max" ]; then echo "alloc-check: $$bench $$a allocs/op OVER budget $$max"; fail=1; \
		else echo "alloc-check: $$bench $$a allocs/op (budget $$max)"; fi; \
	done; exit $$fail

cover-check:
	@fail=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; min=$${spec##*:}; \
		pct=$$($(GO) test -count=1 -coverprofile=/dev/null -cover ./$$pkg | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "cover-check: no coverage reported for $$pkg"; fail=1; continue; fi; \
		if awk -v p=$$pct -v m=$$min 'BEGIN{exit !(p>=m)}'; then \
			echo "cover-check: $$pkg $$pct% (floor $$min%)"; \
		else \
			echo "cover-check: $$pkg $$pct% UNDER floor $$min%"; fail=1; \
		fi; \
	done; exit $$fail

oracle-sweep:
	PLA_ORACLE_TRIALS=800 $(GO) test -run TestOracle -count=1 ./internal/core

# Docs drift gate: every plad flag and every /metrics series name must
# be mentioned somewhere under docs/, and every flag-table row in
# docs/OPERATIONS.md (a line starting | `-name`) must name a flag plad
# still defines. The lists come from the binary itself (-list-flags /
# -list-metrics), so adding a flag or metric without documenting it, or
# deleting a flag without its row, fails the build.
docs-check:
	@fail=0; \
	flags=$$($(GO) run ./cmd/plad -list-flags); \
	for f in $$flags; do \
		grep -qr -- "-$$f" docs/ || { echo "docs-check: flag -$$f not documented in docs/"; fail=1; }; \
	done; \
	for f in $$(sed -n 's/^| `-\([a-z0-9-]*\)[` ].*/\1/p' docs/OPERATIONS.md); do \
		echo "$$flags" | grep -qx -- "$$f" || { echo "docs-check: docs/OPERATIONS.md has a row for -$$f, which plad does not define"; fail=1; }; \
	done; \
	for m in $$($(GO) run ./cmd/plad -list-metrics); do \
		grep -qr "$$m" docs/ || { echo "docs-check: metric $$m not documented in docs/"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] && echo "docs-check: all flags and metrics documented"; exit $$fail
