GO ?= go

.PHONY: build test test-full vet race fmt trace trace-rocev2 chaos-check partition-smoke dag-smoke pdes-smoke fuzz-smoke bench bench-smoke bench-check wire-check bench-gate results-check profile

build:
	$(GO) build ./...

# Fast suite: unit + protocol tests, multi-second experiment sweeps skipped.
test:
	$(GO) test -short ./...

# Full suite, including the experiment reproductions (several minutes).
test-full:
	$(GO) test ./...

# vet also guards the one query lifecycle: outside the simulator itself, its
# qperf baseline and the frozen bench/ harness, only the driver
# (cluster.Run, internal/cluster/query.go) may run a cluster's engine — a
# hand-rolled Sim.Run()/Group.Run() forgets Recycle, or runs the control
# partition alone where the cluster has more. It also keeps fabric's SetArrivalBatching dead: the method is an
# empty stub the frozen bench/probes.go still calls, and goes with that probe.
# And it keeps the buffer pool's tenants a reviewed list: outside tests,
# bufpool.Get may be called from the four files that own a pooled store and
# nowhere else (a fifth tenant needs an owner that returns what it draws).
vet:
	$(GO) vet ./...
	@if grep -rnE '\.(Sim|Group)\.Run\(\)' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . \
		| grep -vE '^\./(internal/sim/|internal/qperf/|bench/|internal/cluster/query\.go:)'; then \
		echo "vet: run the engine through cluster.Run (internal/cluster/query.go), not by hand"; exit 1; fi
	@if grep -rnE '\.SetArrivalBatching\(' --include='*.go' --exclude-dir=.bench_build --exclude-dir=bench .; then \
		echo "vet: SetArrivalBatching does nothing and is going away; only bench/ may still call it"; exit 1; fi
	@if grep -rnE 'bufpool\.Get\(' --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build . \
		| grep -vE '^\./internal/(verbs/ring\.go|engine/(batch|store)\.go|cluster/cluster\.go):'; then \
		echo "vet: the buffer pool has four tenants (verbs rings and snapshots, engine row stores, engine operator state, RunBench tables);"; \
		echo "     a new one needs an owner that returns what it draws, and a line here and in DESIGN.md"; exit 1; fi

# The kernel runs a second time at one and at four Ps: its event loop moves
# between goroutines (whoever blocks drives it), and the worker pool behind
# wide PDES windows only starts above one P. The buffer pool rides along:
# every partition of a wide window and every cell of a sweep draws from it
# at once. So does the PDES equivalence matrix: a UD datagram record is
# made on the sender's partition and parked on the receiver's, so its
# handoff through the window barrier is checked with the worker pool live.
race:
	$(GO) test -race -short ./...
	$(GO) test -race -short -cpu 1,4 ./internal/sim/ ./internal/bufpool/
	$(GO) test -race -cpu 1,4 -run TestPDESEquivalenceMatrix ./internal/cluster/

fmt:
	gofmt -l -w .

# Run a short traced benchmark twice with the same seed and check the
# exported Chrome traces are byte-identical (the determinism oracle); the
# trace lands in trace.json for chrome://tracing or Perfetto. The binary is
# built once and run twice — `go run` would pay the toolchain twice. The
# grep keeps the check from passing on an export that holds the control
# actor's phase spans and no node's events: two of those compare equal too.
trace:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp" trace2.json' EXIT; \
	$(GO) build -o $$tmp/shufflebench ./cmd/shufflebench && \
	$$tmp/shufflebench -trace trace.json && \
	$$tmp/shufflebench -trace trace2.json && \
	cmp trace.json trace2.json && \
	grep -q '"name":"wire"' trace.json && \
	echo "trace deterministic: trace.json"

# Same determinism oracle on the lossy RoCEv2 tier: the trace now carries
# pause frames, ECN marks, CNPs, rate cuts, and retransmits, and must still
# be byte-identical across same-seed runs.
trace-rocev2:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp" trace-rocev2-2.json' EXIT; \
	$(GO) build -o $$tmp/shufflebench ./cmd/shufflebench && \
	$$tmp/shufflebench -profile rocev2 -trace trace-rocev2.json && \
	$$tmp/shufflebench -profile rocev2 -trace trace-rocev2-2.json && \
	cmp trace-rocev2.json trace-rocev2-2.json && \
	grep -q '"name":"rate_cut"' trace-rocev2.json && \
	grep -q '"name":"pfc_pause"' trace-rocev2.json && \
	grep -q '"name":"ecn_mark"' trace-rocev2.json && \
	echo "lossy trace deterministic: trace-rocev2.json"

# Chaos golden check: the fault x design matrix (shufflebench -chaos) on the
# lossless InfiniBand and the lossy RoCEv2 fabric, each table compared byte
# for byte with its checked-in copy (internal/cluster/testdata/chaos_*.txt);
# a mismatch prints the unified diff, and a cell that exhausted its restart
# budget fails the run even if the golden were re-captured with it. The
# binary is built once; both matrices take well under a second.
chaos-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/shufflebench ./cmd/shufflebench && \
	for prof in ib rocev2; do \
		golden=internal/cluster/testdata/chaos_$$prof.txt; \
		$$tmp/shufflebench -chaos -profile $$prof > $$tmp/chaos_$$prof.txt || exit 1; \
		if grep -q exhausted $$tmp/chaos_$$prof.txt; then \
			grep exhausted $$tmp/chaos_$$prof.txt; echo "chaos-check: $$prof: a cell exhausted its restarts"; exit 1; fi; \
		cmp -s $$golden $$tmp/chaos_$$prof.txt || { diff -u $$golden $$tmp/chaos_$$prof.txt; exit 1; }; \
	done && \
	echo "chaos matrices match internal/cluster/testdata/chaos_{ib,rocev2}.txt"

# Race-enabled transient-fault smoke: one mid-stream reboot and one
# asymmetric partition against MEMQ/SR, through detection, epoch fencing,
# and partial restart. The partition cell must re-stream strictly fewer
# partitions than a full restart would.
partition-smoke:
	$(GO) test -race -run '^TestPartitionSmoke$$' -v ./internal/cluster/

# Race-enabled DAG smoke: the multi-stage plan (partial agg → hash
# re-shuffle → join → broadcast) in two explicit attempts. Attempt 0 runs
# under total RC loss into node 1 and must fail with a transport error;
# attempt 1 reruns the whole plan on a fresh, clean cluster and must produce
# the right sum.
dag-smoke:
	$(GO) test -race -run '^TestDagChaosSmoke$$' -v ./internal/dag/

# Race-enabled PDES equivalence smoke: all six Table 1 designs plus a
# crash-stop chaos cell through RunBench, and the multi-stage DAG plan over
# three designs, at 1 (no windows — what cluster.New boots), 2, and 8 logical
# partitions; every output fingerprint (result, metrics report, merged
# trace) must be byte-identical across LP counts.
pdes-smoke:
	$(GO) test -race -run '^TestPDES' -v ./internal/cluster/ ./internal/dag/

# Short fuzz smoke for the fuzz targets (checked-in corpus plus a few
# seconds of fresh coverage each). Go runs one -fuzz target per invocation,
# so the packages are fuzzed back to back.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzFaultPlanValidation$$' -fuzztime $(FUZZTIME) ./internal/fabric/
	$(GO) test -run '^$$' -fuzz '^FuzzTimerWheel$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzWindowMerge$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzGroupTable$$' -fuzztime $(FUZZTIME) ./internal/engine/

# Wall-clock benchmarks: kernel micro (events/sec, ns/dispatch, allocs/event),
# the engine's operator kernels (scan, hash join, hash aggregation by group
# count and key width) and whole-query macro, exported as BENCH_sim.json for
# regression tracking.
# Each run appends to the file's run history (the old single-run schema is
# absorbed as the first entry), so repeated invocations build a series.
# benchjson is built before the benchmarks start: `go test | go run ...`
# compiles the consumer concurrently with the first benchmarks in the pipe,
# which inflates their ns/op on small machines.
# Each benchmark runs three times and benchjson keeps the fastest: noise on
# a shared host only ever adds time.
BENCH_PKGS = ./internal/sim/ ./internal/engine/ ./internal/cluster/
bench:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/benchjson ./cmd/benchjson && \
	$(GO) test -run='^$$' -bench=. -benchmem -count=3 $(BENCH_PKGS) | $$tmp/benchjson -append -o BENCH_sim.json

# CI smoke: every benchmark runs one iteration, proving the harness and the
# JSON export stay green without paying for steady-state measurements.
bench-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/benchjson ./cmd/benchjson && \
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=1x $(BENCH_PKGS) | $$tmp/benchjson -o BENCH_sim.json

# The repository benchmark (BENCHMARK.json) lives in bench/, a module of its
# own that `go build ./...` at the root never sees; vet and test it so a
# rename in internal/ cannot break the benchmark command unnoticed.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Fast refactoring oracle: 120 small whole-query cells (8 designs x FDR/EDR x
# six endpoint shapes, plus three lossy RoCEv2 incasts per design), each
# pinned to its checked-in fingerprint — response time, posts, polls, wire
# messages, rows delivered, sha256 of the full trace
# (internal/cluster/testdata/wire_golden.txt). A change meant to be invisible
# on the wire passes in seconds; results-check below is the slow, complete
# one. To re-capture after a deliberate model change, delete the golden file
# and run this target once (that run fails on purpose), then review the diff.
wire-check:
	$(GO) test -run '^TestWireGolden$$' -count=1 ./internal/cluster/

# Golden-file check: regenerate the report — every exhibit table, virtual
# time only — and compare it byte for byte with results_fast.txt; on a
# mismatch the unified diff names every line that moved. Cells run one at a
# time (-workers 1) to bound memory: 9 min on a 2-core host. -workers 0 is
# not faster there and overlaps every cell's inputs — it was stopped at
# 6.7 GB resident inside its first minute. On an 8 GB host run it with
# GOMEMLIMIT=5000MiB in the environment: without it fig09 alone passes
# 7.7 GB resident and the run is OOM-killed; with it the run peaks near
# 5.1 GB and prints the same bytes.
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/shufflebench ./cmd/shufflebench && \
	$$tmp/shufflebench -exp all -workers 1 > $$tmp/results_fast.txt && \
	{ cmp -s results_fast.txt $$tmp/results_fast.txt || { diff -u results_fast.txt $$tmp/results_fast.txt; exit 1; }; } && \
	echo "results_fast.txt regenerates byte-identical"

# Bench regression gate: benchmark the smoke set at the working tree AND at
# GATE_BASE (default origin/main) on the same machine, then fail on a >15%
# ns/op regression via benchjson -compare. Same-machine A/B is the only
# honest comparison — ns/op from the checked-in history was measured on
# different hardware. Each side runs GATE_COUNT repetitions and benchjson
# keeps the fastest (noise only adds time; single repetitions make the
# ~1 µs channel-handoff benchmarks flap by ±20%). Benchmarks that exist on
# only one side are reported but never fail the gate.
GATE_BASE ?= origin/main
GATE_BENCHTIME ?= 300ms
GATE_COUNT ?= 3
bench-gate:
	@tmp=$$(mktemp -d); trap 'git worktree remove -f $$tmp/base 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/benchjson ./cmd/benchjson && \
	$(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(GATE_BENCHTIME) -count=$(GATE_COUNT) $(BENCH_PKGS) | $$tmp/benchjson -o $$tmp/new.json && \
	git worktree add -q --detach $$tmp/base $(GATE_BASE) && \
	( cd $$tmp/base && $(GO) test -run='^$$' -bench=. -benchmem -benchtime=$(GATE_BENCHTIME) -count=$(GATE_COUNT) $(BENCH_PKGS) ) | $$tmp/benchjson -o $$tmp/old.json && \
	$$tmp/benchjson -compare $$tmp/old.json $$tmp/new.json -threshold 0.15

# CPU + heap profile of a whole-query run: future kernel work starts from a
# pprof, not a guess. Tune PROFILE_EXP to the experiment you care about.
PROFILE_EXP ?= table1
profile:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/shufflebench ./cmd/shufflebench && \
	$$tmp/shufflebench -exp $(PROFILE_EXP) -cpuprofile cpu.prof -memprofile mem.prof >/dev/null && \
	echo "wrote cpu.prof and mem.prof; inspect with:" && \
	echo "  $(GO) tool pprof -top cpu.prof" && \
	echo "  $(GO) tool pprof -top -sample_index=alloc_space mem.prof"
