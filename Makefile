# Every target here but full-golden and pgo-diff is what CI runs — keep them in sync
# so "it passed locally" and "it passed CI" mean the same thing.

GO  ?= go
BIN := bin

.PHONY: all build fmt-check lint onebed vet test short race mutation fuzz-smoke \
        bench-smoke golden quick-golden full-golden bufsim-golden bench bench-gate bench-scale \
        bench-scale-gate benchmark-check ab pgo pgo-diff loc clean

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

# lint runs onebed and the repo's three analyzers (simdeterminism,
# maporder, unitsafety) over the tree — including cmd/buflint and
# internal/lint themselves. Blocking: any finding fails the build, and
# so does a stale //lint:ignore or one naming an unknown analyzer. See
# DESIGN.md "Static analysis".
lint: onebed
	$(GO) run ./cmd/buflint ./...

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

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# mutation proves the checkers catch seeded bugs: the queue's books a
# seeded accounting bug (build tag auditmutation plants it in DropTail),
# caught on an audited drop-tail link and an audited RED link (and a
# CoDel link), the link audit a transmitter that starts each packet when
# it is offered instead of when it frees up and a hand-off that gives a
# receiver its segment at the offer instant, so the ACK is stamped and
# sent then rather than at the arrival, the sender audit a sender that
# resends acknowledged data (the same tag drops onNewAck's raise of
# sndNxt), and each buflint analyzer its own bug seeded into a copy of
# internal/topology, reported by that analyzer alone.
mutation:
	$(GO) test -tags auditmutation -run TestAuditMutation ./internal/link/ ./internal/tcp/
	$(GO) test -run TestSeededMutationDetected ./internal/lint/

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzQueueConservation -fuzztime 30s ./internal/queue/
	$(GO) test -run '^$$' -fuzz FuzzSchedulerInvariants -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzHeapSelect -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzKernelMatchesOracle -fuzztime 30s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzClassifier -fuzztime 30s ./internal/probe/
	$(GO) test -run '^$$' -fuzz FuzzSeqRuns -fuzztime 30s ./internal/tcp/
	$(GO) test -run '^$$' -fuzz FuzzTailMatchesPercentile -fuzztime 30s ./internal/stats/
	$(GO) test -run '^$$' -fuzz FuzzReadFlows -fuzztime 30s ./internal/workload/
	$(GO) test -run '^$$' -fuzz FuzzLoad -fuzztime 30s ./internal/workload/profile/
	$(GO) test -run '^$$' -fuzz FuzzLoadScenario -fuzztime 30s ./cmd/bufsim/
	$(GO) test -run '^$$' -fuzz FuzzParsePattern -fuzztime 30s ./internal/adversary/
	$(GO) test -run '^$$' -fuzz FuzzCachedBlob -fuzztime 30s ./internal/experiment/
	$(GO) test -run '^$$' -fuzz FuzzRun -fuzztime 30s .

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

# full-golden is quick-golden at paper scale: a fresh `paperexp -exp all`
# against results/full_run.txt, its CSV series against results/csv and its
# figures against results/svg, timing lines (parenthesised) dropped on
# both sides. It takes a paper-scale run (about four minutes on two
# cores), so it is not in CI: run it after a change that may move a
# result, and re-record results/ when it moved on purpose.
full-golden:
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/paperexp -exp all -csv "$$d/csv" -svg "$$d/svg" > "$$d/out.txt"; \
	grep -v '^(' "$$d/out.txt" | sed "s|$$d/|results/|" > "$$d/run.txt"; \
	grep -v -e '^(' -e '^EXIT=' results/full_run.txt | diff -u - "$$d/run.txt"; \
	diff -r results/csv "$$d/csv"; \
	diff -r results/svg "$$d/svg"

# bufsim-golden pins cmd/bufsim's stdout the way quick-golden pins
# paperexp's: one short run per scenario the binary has (long-lived
# under drop-tail and RED, -workload, -adversary, -config) against
# cmd/bufsim/testdata. The
# repository benchmark parses the `measured:` line and compares stdout
# digests, so none of it may move by accident.
bufsim-golden:
	$(GO) build -o $(BIN)/bufsim ./cmd/bufsim
	$(BIN)/bufsim -rate 20Mbps -flows 20 -warmup 2s -measure 5s \
		| diff -u cmd/bufsim/testdata/longlived.txt -
	$(BIN)/bufsim -rate 20Mbps -flows 20 -warmup 2s -measure 5s -red \
		| diff -u cmd/bufsim/testdata/longlived_red.txt -
	$(BIN)/bufsim -rate 20Mbps -flows 10 -workload constant -red -variant sack -warmup 1s -measure 4s \
		| diff -u cmd/bufsim/testdata/workload_red_sack.txt -
	$(BIN)/bufsim -rate 20Mbps -flows 8 -warmup 1s -measure 4s -adversary pulse \
		| diff -u cmd/bufsim/testdata/adversary_pulse.txt -
	$(BIN)/bufsim -config configs/oc3-sack.json \
		| diff -u cmd/bufsim/testdata/config_oc3_sack.txt -

# bench regenerates the kernel benchmark report against the checked-in
# baseline (reference numbers come from a quiet machine at GOMAXPROCS=1).
bench:
	GOMAXPROCS=1 $(GO) run ./bench -out BENCH_kernel_ci.json -baseline BENCH_kernel.json

# bench-gate re-measures and fails if any cell's allocs/op rose more than
# 1% over the checked-in BENCH_kernel.json, which is how a packet path
# that allocates again shows up on any machine, or its events/op is not
# the file's: that count is exact everywhere, and a change in it is a
# change in what is simulated. Speed is not gated (it does not repeat on
# a shared box); measure a speed claim with `make ab`.
bench-gate:
	GOMAXPROCS=1 $(GO) run ./bench -out BENCH_kernel_ci.json -gate BENCH_kernel.json

# bench-scale regenerates the flows scaling curve (plus the
# million-sender slab footprint) against the checked-in
# BENCH_scale.json; bench-scale-gate fails if any cell's
# allocs/op rose more than 1% over it or its events/op differs.
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

# ab is how a performance claim is measured: PAIRS alternating pairs of
# `bash benchmark/run.sh -workload WORKLOAD -seed SEED` on REV (its
# committed files, via git archive into a temporary directory) and on the
# working tree, the first side flipping each pair; without WORKLOAD, for
# every workload of BENCHMARK.json in turn. It prints a row per run, then
# one summary table with a row per workload and end-to-end metric: both
# medians and quartiles, the change, the pairs won and whether the gap
# beats REV's interquartile spread. It exits non-zero if a rep failed or
# a workload's stdout digests differ.
PAIRS ?= 10
SEED  ?= 1
ab:
	@test -n "$(REF)" || { echo "usage: make ab REF=<rev> [WORKLOAD=<name>] [PAIRS=10] [SEED=1]" >&2; exit 2; }
	$(GO) run ./bench ab -ref $(REF) $(if $(WORKLOAD),-workload $(WORKLOAD)) -pairs $(PAIRS) -seed $(SEED)

# pgo regenerates cmd/bufsim/default.pgo and its copy
# cmd/paperexp/default.pgo, the CPU profile that `go build` (whose
# default is -pgo=auto) optimises both CLIs with. The commands mirror
# BENCHMARK.json's workloads at their operating points, the bufsim
# windows lengthened to 1-3 s of samples each, and the profiles merge into
# one: the CLIs share the kernel, link, queue and tcp hot paths. The
# binaries profiled are built with -pgo=off, so the profile describes
# plain code and does not feed on itself, and with -trimpath, so it
# records no checkout path. See DESIGN.md "Profile-guided build".
pgo:
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	$(GO) build -pgo=off -trimpath -o "$$d/bufsim" ./cmd/bufsim; \
	$(GO) build -pgo=off -trimpath -o "$$d/paperexp" ./cmd/paperexp; \
	"$$d/bufsim" -seed 1 -pprof "$$d/longlived_30.prof" -rate 60Mbps -flows 30 -buffer 55 \
		-warmup 1s -measure 600s > /dev/null; \
	"$$d/bufsim" -seed 1 -pprof "$$d/longlived_1000.prof" -rate 2Gbps -flows 1000 -buffer 1025 \
		-warmup 1s -measure 8s > /dev/null; \
	"$$d/bufsim" -seed 1 -pprof "$$d/churn_red_sack.prof" -rate 100Mbps -flows 50 -workload constant \
		-red -variant sack -warmup 1s -measure 60s > /dev/null; \
	for exp in fig10 red; do \
		"$$d/paperexp" -seed 1 -pprof "$$d/sweep_$$exp.prof" -quick -parallel 2 -cache \
			-cachedir "$$d/cache" -exp $$exp > /dev/null; \
	done; \
	$(GO) tool pprof -proto "$$d"/*.prof > cmd/bufsim/default.pgo; \
	cp cmd/bufsim/default.pgo cmd/paperexp/default.pgo

# pgo-diff shows what a change did to the profile-guided build: the
# inlining and devirtualization decisions default.pgo drives in
# cmd/bufsim (the compiler's -m -d=pgodebug=1 report), built from REF's
# committed files (git archive into a temporary directory, as ab does)
# and from the working tree, positions stripped, diffed. The profile keys
# its call edges by line offset inside each function, so an edit that
# moves lines in a hot function can drop a decision unseen: a line only
# on REF's side is one lost. It fails when the decisions differ. It runs
# on demand and is not in CI.
PGO_DECISIONS := hot-node enabled|hot-budget check allows|PGO devirtualizing
pgo-diff:
	@test -n "$(REF)" || { echo "usage: make pgo-diff REF=<rev>" >&2; exit 2; }
	@set -e; d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	mkdir "$$d/ref"; git archive "$(REF)" | tar -x -C "$$d/ref"; \
	for side in ref tree; do \
		src=.; if [ $$side = ref ]; then src="$$d/ref"; fi; \
		$(GO) build -C "$$src" -o /dev/null -gcflags='bufsim/...=-m -d=pgodebug=1' ./cmd/bufsim 2> "$$d/$$side.log"; \
		grep -E '$(PGO_DECISIONS)' "$$d/$$side.log" \
			| sed -E 's/^[^ ]+:[0-9]+:[0-9]+: //; s/ at [^ ]+:[0-9]+:[0-9]+//' | sort -u > "$$d/$$side.txt"; \
	done; \
	diff -u --label "$(REF)" --label "working tree" "$$d/ref.txt" "$$d/tree.txt"; \
	echo "pgo-diff: $$(wc -l < "$$d/tree.txt") profile-driven decisions, the same as at $(REF)"

# loc prints the non-test Go line count of every package, the number the
# simplicity PRs report: no _test.go, no analyzer fixtures, and not
# benchmark/ (its own module, which those PRs may not edit).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path '*/testdata/*' -print0 \
		| xargs -0 awk 'FNR == 1 { d = FILENAME; sub(/\/[^\/]*$$/, "", d) } { n[d]++; total++ } \
			END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", total }'

clean:
	rm -rf $(BIN) BENCH_kernel_ci.json BENCH_scale_ci.json

