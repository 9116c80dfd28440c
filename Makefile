# Checks mirror what CI runs; `make check` is the pre-commit gate.

GO ?= go
DATE := $(shell date +%Y-%m-%d)
# Override to write a differently named baseline:
#   make bench-json BENCH_OUT=BENCH_$(DATE)-fastpath.json
BENCH_OUT ?= BENCH_$(DATE).json
# The steady-state data-path benchmarks that must report 0 allocs/op.
ZERO_ALLOC_BENCHES := LinkSend$$|ForwardUnicastHit$$|EndToEndEcho$$

.PHONY: check build vet test race fuzz bench bench-alloc bench-gate bench-mgr bench-ft bench-json bench-diff profile docs-lint report-golden

check: vet build docs-lint test race fuzz bench bench-alloc bench-gate bench-mgr bench-ft

# Documentation gate: every exported identifier in the observability
# surface (obs, metrics, trace), the workload/topology/control-message
# layers, the hardware-model packages, the fabric manager, the engine,
# the control transport and the fabric builder must carry a doc comment
# that opens with the identifier's name (docslint also catches comments
# that survived a rename).
docs-lint:
	$(GO) run ./cmd/docslint ./internal/obs ./internal/metrics ./internal/trace \
		./internal/workload ./internal/topo ./internal/ctrlmsg ./internal/flowtable \
		./internal/fabricmgr ./internal/sim ./internal/ctrlnet ./internal/core

# Report-schema gate alone (also runs as part of `make test`): the
# checked-in Fig. 9 and scenario-replay reports must round-trip
# byte-identically and a fresh replay must reproduce each — the
# scenario golden is the determinism gate for the `-exp sc` fault
# engine (same seed, byte-identical report, serial or parallel).
# Regenerate with:
#   go test ./internal/experiments -run Golden -update
report-golden:
	$(GO) test ./internal/experiments -run 'Fig9ReportGolden|SCReportGolden|MgrReportGolden|FTReportGolden'

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Run the checked-in fuzz seed corpora (no new exploration; CI-safe).
fuzz:
	$(GO) test -run Fuzz ./...

# One iteration per benchmark: a smoke test that they still compile
# and run, not a measurement.
bench:
	$(GO) test -bench . -benchtime 1x -benchmem -run '^$$' ./...

# Allocation gate: the steady-state data path must not allocate. Runs
# the three fast-path benchmarks a few times and fails if any reports
# allocs/op > 0. Part of `make check`.
bench-alloc:
	$(GO) test -bench 'LinkSend$$|ForwardUnicastHit$$|EndToEndEcho$$' \
		-benchtime 100x -benchmem -run '^$$' \
		./internal/sim ./internal/pswitch ./internal/core > bench-alloc.out
	$(GO) run ./cmd/benchjson -assert-zero-allocs '$(ZERO_ALLOC_BENCHES)' < bench-alloc.out
	rm -f bench-alloc.out

# Regression gate: re-run the stable scheduler + data-path benchmarks
# and fail if any is more than GATE_TOLERANCE slower than the committed
# baseline, or allocates more at all. The benchmark set is the hot
# paths whose cost is dominated by this repo's own code (boot-the-world
# benchmarks like K48Discovery are measured in bench-json baselines but
# excluded here: minutes of wall time buys no extra signal). Part of
# `make check`. Baselines are host-relative: refresh (and date) the
# baseline file when the gate fails for the parent commit too — that is
# the host drifting, not a regression (2026-08-09: box measured ~45%
# slower than on 2026-08-05 across all gate benches at the *old* HEAD;
# refreshed again later that day when the parent commit failed its own
# alloc gate — K16SteadyState sits on a 31/32 allocs/op ticker-phase
# rounding boundary, and the box had drifted further).
GATE_BASELINE ?= BENCH_2026-08-09-mgrpr.json
GATE_TOLERANCE ?= 0.30
GATE_BENCHES := EngineSchedule$$|EngineScheduleRun$$|EngineTimerChurn$$|LinkSend$$|ForwardUnicastHit$$|EndToEndEcho$$|K16SteadyState$$
bench-gate:
	$(GO) test -bench '$(GATE_BENCHES)' -benchmem -run '^$$' \
		./internal/sim ./internal/pswitch ./internal/core > bench-gate.out
	$(GO) run ./cmd/benchjson -gate $(GATE_BASELINE) -gate-tolerance $(GATE_TOLERANCE) < bench-gate.out
	rm -f bench-gate.out

# Manager benchmark gate: wall-clock ARP service rate against a
# prefix-sharded registry (resolutions/s vs shard count and registry
# size), exclusion fan-out latency vs shard count (must stay flat —
# shard 0 alone carries the route authority), and the sampled-trace
# replay rate (its `flows` metric names the per-iteration sample size).
# The baseline's num_cpu/gomaxprocs fields and the per-row workers
# metric record how much parallelism the run had — on a single-core
# host the sharded ARP rows measure cache locality and partition
# overhead, not fan-out speedup.
BENCH_MGR_BASELINE ?= BENCH_2026-08-09-mgr.json
bench-mgr:
	$(GO) test -bench 'MgrARPThroughput|FaultFanout|TraceWorkload' \
		-benchtime 300ms -benchmem -run '^$$' \
		./internal/fabricmgr ./internal/core > bench-mgr.out
	$(GO) run ./cmd/benchjson -gate $(BENCH_MGR_BASELINE) \
		-gate-tolerance 0.50 -gate-alloc-tolerance 0.02 < bench-mgr.out
	rm -f bench-mgr.out

# Hardware table-pressure gate: eviction throughput on a bounded flow
# table (LRU and random policies, with the unbounded control isolating
# the bookkeeping cost) and the fabric-level thrash rate under a tiny
# generation envelope. The self-reported `occupancy` metric must pin at
# 1 — a bounded table that isn't full isn't under pressure — and
# `evict/op` records the eviction rate; `cmd/benchjson -diff` tabulates
# both. Single-core caveat: FabricTablePressure advances one serial
# engine, so its ns/op measures scheduler + eviction cost, not any
# parallel speedup.
BENCH_FT_BASELINE ?= BENCH_2026-08-09-ft.json
bench-ft:
	$(GO) test -bench 'TablePressure|TableUnbounded' -benchtime 300ms -benchmem -run '^$$' \
		./internal/flowtable ./internal/core > bench-ft.out
	$(GO) run ./cmd/benchjson -gate $(BENCH_FT_BASELINE) \
		-gate-tolerance 0.50 -gate-alloc-tolerance 0.02 < bench-ft.out
	rm -f bench-ft.out

# Full benchmark sweep serialized into a dated JSON baseline.
bench-json:
	$(GO) test -bench . -benchmem -run '^$$' ./... > bench.out
	$(GO) run ./cmd/benchjson -o $(BENCH_OUT) < bench.out
	rm -f bench.out

# Compare two checked-in baselines:
#   make bench-diff OLD=BENCH_2026-08-05-fastpath.json NEW=BENCH_2026-08-05-wheel.json
OLD ?= BENCH_2026-08-05-fastpath.json
NEW ?= BENCH_2026-08-05-wheel.json
bench-diff:
	$(GO) run ./cmd/benchjson -diff $(OLD) $(NEW)

# CPU + heap profiles of the Figure 9 sweep, for pprof.
profile:
	$(GO) run ./cmd/portland-bench -quick -exp f9 -cpuprofile cpu.prof -memprofile mem.prof
