# Local targets mirror .github/workflows/ci.yml exactly: `make ci` runs
# the same checks the workflow does, in the same order.

GO ?= go
STATICCHECK_VERSION ?= 2025.1

.PHONY: build vet fmt staticcheck lint lint-debt lint-sarif test race bench bench-smoke bench-json bench-compare scale-smoke determinism faults-smoke trace-smoke fleet-smoke perfbench-check ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (like CI) if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# staticcheck runs pinned via the module cache; no checked-in tool
# dependency. Needs network on the first run to fetch the tool.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# lint runs sledlint, the in-repo determinism and dataflow linter
# (cmd/sledlint): the syntactic rules (wallclock, rngsource, mapiter,
# panicpath, simtime) plus the inter-procedural ones (seedflow,
# errflow, hotalloc), over the whole module with test files included,
# gated against the committed baseline (lint-baseline.json; currently
# empty — no accepted debt). Suppressions need
# //sledlint:allow <rule> -- <reason>; `make lint-debt` lists them.
lint:
	$(GO) run ./cmd/sledlint -tests -baseline lint-baseline.json ./...

# lint-debt inventories every //sledlint:allow directive with its
# reason — the full cost of the suppression mechanism, in one page.
lint-debt:
	$(GO) run ./cmd/sledlint -debt ./...

# lint-sarif renders the same run as SARIF 2.1.0 for code-scanning
# UIs. Informational (never fails): the gate is `make lint`.
lint-sarif:
	$(GO) run ./cmd/sledlint -tests -sarif ./... > sledlint.sarif; true

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# bench-smoke runs every microbenchmark for a single iteration so CI
# catches benchmarks that panic or fail setup without paying for stable
# timings.
bench-smoke:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./internal/core ./internal/cache ./internal/iosched ./internal/trace ./internal/fleet ./internal/remote ./internal/workload ./internal/apps/wcapp ./internal/vfs

# bench-json regenerates BENCH_13.json, the committed snapshot of the
# query/cache/iosched/trace/fleet/remote microbenchmarks and the root
# figure benchmarks, as a JSON map of benchmark name to ns/op, B/op,
# allocs/op and ReportMetric figures. Timings vary by machine; the
# snapshot exists to pin the alloc counts (which bench-compare gates) and
# record the measured speedups at authoring time. Run it on a bench-suite
# change and commit the result. BENCH_5.json through BENCH_10.json are
# the frozen earlier snapshots; leave them be.
bench-json:
	{ $(GO) test -bench=. -benchmem -run='^$$' ./internal/core ./internal/cache ./internal/iosched ./internal/trace ./internal/fleet ./internal/remote; \
	  $(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' .; } | $(GO) run ./cmd/benchjson > BENCH_13.json
	@echo "bench-json: wrote BENCH_13.json"

# bench-compare reruns the bench-json suite and gates it against the
# committed BENCH_13.json snapshot: every benchmark in the snapshot must
# still exist, and allocs/op may not grow more than 25%. Only alloc
# counts are gated — they are deterministic for these workloads, while
# ns/op on shared CI runners is noise.
bench-compare:
	{ $(GO) test -bench=. -benchmem -run='^$$' ./internal/core ./internal/cache ./internal/iosched ./internal/trace ./internal/fleet ./internal/remote; \
	  $(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' .; } | $(GO) run ./cmd/benchjson -compare BENCH_13.json -tolerance 0.25

# scale-smoke proves the event-heap engine at full width: the escale
# experiment (up to 10,000 streams over 24 queued disks, fcfs and sstf)
# must complete at quick scale and print byte-identical figures at 1 and
# 4 workers. escale is deliberately outside "all", so this is the only
# place it runs.
scale-smoke:
	$(GO) run ./cmd/sledsbench -scale quick -exp escale -workers 1 > /tmp/sledsbench-escale-w1.txt
	$(GO) run ./cmd/sledsbench -scale quick -exp escale -workers 4 > /tmp/sledsbench-escale-w4.txt
	diff /tmp/sledsbench-escale-w1.txt /tmp/sledsbench-escale-w4.txt
	@echo "scale-smoke: 10,000-stream escale is byte-identical at 1 and 4 workers"

# determinism regenerates the quick-scale evaluation serially and with a
# 4-worker pool and fails on any stdout byte difference, guarding the
# per-point seed derivation and the index-ordered reduce.
determinism:
	$(GO) run ./cmd/sledsbench -scale quick -workers 1 > /tmp/sledsbench-w1.txt
	$(GO) run ./cmd/sledsbench -scale quick -workers 4 > /tmp/sledsbench-w4.txt
	diff /tmp/sledsbench-w1.txt /tmp/sledsbench-w4.txt
	@echo "deterministic: quick-scale output is byte-identical at 1 and 4 workers"
	diff experiments_quick_scale.txt /tmp/sledsbench-w1.txt
	@echo "deterministic: quick-scale output matches the committed golden"
	$(GO) run ./cmd/sledsbench -scale quick -exp econtend,eloadsled -workers 1 > /tmp/sledsbench-contend-w1.txt
	$(GO) run ./cmd/sledsbench -scale quick -exp econtend,eloadsled -workers 4 > /tmp/sledsbench-contend-w4.txt
	diff /tmp/sledsbench-contend-w1.txt /tmp/sledsbench-contend-w4.txt
	@echo "deterministic: contention experiments are byte-identical at 1 and 4 workers"
	$(GO) run ./cmd/sledsbench -scale quick -exp efaults -runs 2 -faults heavy -workers 1 > /tmp/sledsbench-faults-w1.txt
	$(GO) run ./cmd/sledsbench -scale quick -exp efaults -runs 2 -faults heavy -workers 4 > /tmp/sledsbench-faults-w4.txt
	diff /tmp/sledsbench-faults-w1.txt /tmp/sledsbench-faults-w4.txt
	@echo "deterministic: fault injection is byte-identical at 1 and 4 workers"
	$(GO) run ./cmd/sledsbench -scale quick -exp etrace,efleet,ehsm,eremote -sledmemo on > /tmp/sledsbench-memo-on.txt
	$(GO) run ./cmd/sledsbench -scale quick -exp etrace,efleet,ehsm,eremote -sledmemo off > /tmp/sledsbench-memo-off.txt
	diff /tmp/sledsbench-memo-on.txt /tmp/sledsbench-memo-off.txt
	@echo "deterministic: etrace, efleet, ehsm and eremote are byte-identical with the SLED skeleton memo on and off"

# trace-smoke drives the trace subsystem end to end: sledstrace
# generates a trace, validates its own output, and the etrace experiment
# (every workload class × {fcfs,sstf,deadline} × SLED on/off) replays at
# quick scale with byte-identical figures at 1 and 4 workers. etrace is
# deliberately outside "all" (like escale), so this is the only place it
# runs.
trace-smoke:
	$(GO) run ./cmd/sledstrace gen -class mixed -seed 7 -o /tmp/sledstrace-smoke.sledtrace
	$(GO) run ./cmd/sledstrace validate /tmp/sledstrace-smoke.sledtrace
	$(GO) run ./cmd/sledsbench -scale quick -exp etrace -workers 1 > /tmp/sledsbench-etrace-w1.txt
	$(GO) run ./cmd/sledsbench -scale quick -exp etrace -workers 4 > /tmp/sledsbench-etrace-w4.txt
	diff /tmp/sledsbench-etrace-w1.txt /tmp/sledsbench-etrace-w4.txt
	@echo "trace-smoke: etrace replay is byte-identical at 1 and 4 workers"

# fleet-smoke drives the fleet tier end to end: the efleet experiment
# (3 scenarios x {rr, sled, hedge} over a 4-replica fleet) must complete
# at quick scale and print byte-identical reports at 1 and 4 workers.
# efleet is deliberately outside "all" (like escale and etrace), so this
# is the only place it runs.
fleet-smoke:
	$(GO) run ./cmd/sledsbench -scale quick -exp efleet -workers 1 > /tmp/sledsbench-efleet-w1.txt
	$(GO) run ./cmd/sledsbench -scale quick -exp efleet -workers 4 > /tmp/sledsbench-efleet-w4.txt
	diff /tmp/sledsbench-efleet-w1.txt /tmp/sledsbench-efleet-w4.txt
	@echo "fleet-smoke: efleet is byte-identical at 1 and 4 workers"

# faults-smoke drives the fault-injection path end to end: the efaults
# experiment at quick scale with the heavy profile stacked over every
# device of every machine. Every injected fault must be retried or
# surfaced as EIO — a panic anywhere on the fault path fails the target.
faults-smoke: vet
	$(GO) run ./cmd/sledsbench -scale quick -exp efaults -runs 2 -faults heavy > /dev/null
	@echo "faults-smoke: efaults completed with heavy injection on every device"

# perfbench-check covers the benchmark module. perfbench/ is its own Go
# module, so `make test` and `make lint` never compile it: this target
# runs its tests and sledlint over it, then a 2-second scan run whose
# JSON result must report a correct answer.
perfbench-check:
	cd perfbench && $(GO) test ./... && $(GO) run sleds/cmd/sledlint -tests ./...
	bash perfbench/run.sh --workload scan --seed 1 --seconds 2 --trace 0 | grep -q '"correct":true'
	@echo "perfbench-check: perfbench tests and lint pass; a 2 s scan run is correct"

ci: build vet fmt staticcheck lint test race bench-smoke bench-compare scale-smoke determinism faults-smoke trace-smoke fleet-smoke perfbench-check
