# Every target here is what CI runs — keep them in sync so "it passed
# locally" and "it passed CI" mean the same thing.

GO  ?= go
BIN := bin

.PHONY: all build fmt-check lint onebed vet test short race mutation fuzz-smoke \
        bench-smoke golden quick-golden bench bench-gate bench-scale \
        bench-scale-gate benchmark-check loc clean

all: build lint test

build:
	$(GO) build ./...

fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# lint builds the first-party vettool and runs its nine analyzers
# (simdeterminism, maporder, unitsafety, digestfield, eventcapture,
# shardsafety, shardownership, slabescape, rngconfinement) over the
# tree — including cmd/buflint and internal/lint themselves — through
# go vet's unitchecker protocol. Blocking: any finding fails the build,
# and so does a stale //lint:ignore. See DESIGN.md "Static analysis".
lint: $(BIN)/buflint onebed
	$(GO) vet -vettool=$(abspath $(BIN)/buflint) ./...

# onebed keeps internal/experiment to one test bed: a scheduler or a
# topology built in any non-test file there other than bed.go is a
# hand-rolled copy of the apparatus and fails the build. See DESIGN.md
# "Test bed".
onebed:
	@stray="$$(grep -nE 'sim\.NewScheduler\(|topology\.NewDumbbell\(|topology\.NewParkingLot\(' \
		internal/experiment/*.go | grep -vE '^internal/experiment/(bed|[a-z_]*_test)\.go:')"; \
	if [ -n "$$stray" ]; then \
		echo "onebed: build the scenario on internal/experiment/bed.go instead:" >&2; \
		echo "$$stray" >&2; \
		exit 1; \
	fi

$(BIN)/buflint: FORCE
	$(GO) build -o $(BIN)/buflint ./cmd/buflint

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# mutation proves the conservation auditor detects a seeded accounting
# bug (build tag auditmutation plants it in DropTail).
mutation:
	$(GO) test -tags auditmutation -run TestAuditMutation ./internal/queue/

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzQueueConservation -fuzztime 30s ./internal/queue/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerInvariants -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzFrontierMerge -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzClassifier -fuzztime 30s ./internal/probe/
	$(GO) test -run '^$$' -fuzz FuzzSeqRuns -fuzztime 30s ./internal/tcp/
	$(GO) test -run '^$$' -fuzz FuzzReadFlows -fuzztime 30s ./internal/workload/

# bench-smoke only checks the benchmarks still compile and run one
# iteration; -short keeps the expensive paper reproductions out.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x ./...

golden:
	$(GO) test -run TestGolden -v ./internal/experiment/

# quick-golden is the stdout check of every refactor: a fresh
# `paperexp -quick -exp all` against the recorded tables, timing lines
# (parenthesised) aside. CI's cache job makes the same diff against the
# cold run it already has.
quick-golden:
	$(GO) run ./cmd/paperexp -quick -exp all | grep -v '^(' | diff -u cmd/paperexp/testdata/quick_all.txt -

# bench regenerates the kernel benchmark report against the checked-in
# baseline (reference numbers come from a quiet machine at GOMAXPROCS=1).
bench:
	GOMAXPROCS=1 $(GO) run ./bench -out BENCH_kernel_ci.json -baseline BENCH_kernel.json

# bench-gate re-measures and fails if events/sec fell more than 5%
# below the checked-in BENCH_kernel.json — the budget the pluggable
# congestion-control indirection (and any future abstraction on the
# per-event path) must fit within — or if any cell's allocs/op rose more
# than 1%, which is how a packet path that allocates again shows up on
# any machine, or its events/op is not the file's: that count is exact
# everywhere, and a change in it is a change in what is simulated.
bench-gate:
	GOMAXPROCS=1 $(GO) run ./bench -out BENCH_kernel_ci.json -gate BENCH_kernel.json

# bench-scale regenerates the flows x shards scaling curve (plus the
# fabric shape and the million-sender slab footprint) against the
# checked-in BENCH_scale.json; bench-scale-gate fails if any cell's
# events/sec fell more than 5% below it — the budget the sharded
# engine's bookkeeping must fit within on a sequential run — or its
# allocs/op rose more than 1%, or its events/op differs.
bench-scale:
	GOMAXPROCS=1 $(GO) run ./bench -scale -out BENCH_scale_ci.json -baseline BENCH_scale.json

bench-scale-gate:
	GOMAXPROCS=1 $(GO) run ./bench -scale -out BENCH_scale_ci.json -gate BENCH_scale.json

# benchmark-check keeps the repository benchmark (benchmark/, its own
# module, outside `go build ./...`) compiling against the simulator: its
# per-layer drivers import internal/{sim,link,queue,tcp,...} directly, so
# an API change there must fail here, not later as `layers.ok` 0 in a
# traced benchmark run.
benchmark-check:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...
	$(GO) build -C benchmark -o /dev/null ./layers

# loc prints the non-test Go line count of every package, the number the
# simplicity PRs report: no _test.go, no analyzer fixtures, and not
# benchmark/ (its own module, which those PRs may not edit).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 awk 'FNR == 1 { d = FILENAME; sub(/\/[^\/]*$$/, "", d) } { n[d]++; total++ } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", total }'

clean:
	rm -rf $(BIN) BENCH_kernel_ci.json BENCH_scale_ci.json

FORCE:
