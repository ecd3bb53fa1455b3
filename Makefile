# Development entry points. `make check` is the tier-1 gate plus the race
# detector over the packages that run worlds on goroutines; CI should run
# exactly this target.

GO ?= go

# Packages with one fuzz target and a committed seed corpus under
# testdata/fuzz/: a wire-format FuzzDecode each, and slab's
# FuzzIndexAgainstMap (the index table against a map).
FUZZ_PKGS = ./internal/sigmap/ ./internal/gtp/ ./internal/q931/ ./internal/gb/ ./internal/isup/ ./internal/rtp/ ./internal/gsm/ ./internal/h323/ ./internal/slab/

.PHONY: all build vet test race check bench-smoke bench-e2e bench bench-sim bench-slab bench-codec bench-scenarios bench-scale heap-profile bench-media bench-json loc fuzz-smoke fuzz soak soak-short

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# One goroutine drives each world (an Env and its nodes), so no node takes a
# lock; what makes that safe is that worlds share no mutable state. The race
# detector checks it where worlds run concurrently: runSweep
# (internal/experiments) fans experiment points, each building its own Env,
# across worker goroutines, and netsim.TestWorldsShareNoState runs every
# topology builder twice at once.
race:
	$(GO) test -race ./internal/experiments/... ./internal/sim/... ./internal/netsim/...

# bench/ is its own module (BENCHMARK.json's harness): the root
# `go build ./... && go test ./...` never compiles it, yet it calls the
# nodes' public accessors. ~2 s.
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...

check: vet build test race bench-smoke

# BENCHMARK.json's five workloads, end-to-end metrics only, one JSON line
# each: run it in a checkout of the parent commit and in one of the change
# and compare line by line. SECONDS defaults to BENCHMARK.json's run_seconds.
SEED ?= 1
SECONDS ?= 20
bench-e2e:
	@for w in attach_storm call_churn media_relay lossy_rounds region_attach; do \
		bash bench/run.sh --workload $$w --seed $(SEED) --seconds $(SECONDS) --trace 0 | tail -n 1 || exit 1; \
	done

# Short coverage-guided fuzz pass over every fuzz target, seeded from the
# committed corpora. CI runs this; it is a smoke test for decoder panics and
# container/model disagreements, not a soak. Minimising a new corpus entry is
# capped: left at its 60 s default it would eat a 10 s run whole.
fuzz-smoke:
	@for pkg in $(FUZZ_PKGS); do \
		$(GO) test $$pkg -fuzz=Fuzz -fuzztime=10s -fuzzminimizetime=1s || exit 1; \
	done

# Longer local fuzzing session per target.
fuzz:
	@for pkg in $(FUZZ_PKGS); do \
		$(GO) test $$pkg -fuzz=Fuzz -fuzztime=5m || exit 1; \
	done

# Every testing.B benchmark: host-time cost of the simulator (registration
# throughput, engine, slab, codecs). The paper's numbers are virtual time and
# are the committed BENCH_<id>.json files (bench-json).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Engine hot-path micro-benchmarks with their allocation budgets: the
# ZeroAlloc tests fail on any allocation, and every benchmark must report
# 0 allocs/op. BenchmarkSendDeliverDeep runs against standing queues of 200
# and 25,000 tied events — the depths the media relay and an attach storm
# hold — which the empty-queue benchmarks cannot see; BenchmarkTimerArmCancel
# is an answered transaction's timer (one AfterArg, one Cancel) at the same
# two depths.
bench-sim:
	$(GO) test -run 'ZeroAlloc' -bench 'SendDeliver|TimerChurn|TimerArmCancel' -benchmem ./internal/sim/

# slab.Index steady-state cycle (Delete + Get + Put) for the three key shapes
# the nodes use, at a small world's population (600), attach_storm's (30,000)
# and the headline one (1,000,000): ns/op, B/entry and %load, 0 allocs/op —
# the table only allocates when it grows. The number to beat for the next
# change to internal/slab/index.go.
bench-slab:
	$(GO) test -run '^$$' -bench IndexCycle -benchmem ./internal/slab/

# Per-codec allocation benchmarks on the pooled zero-copy path. The alloc
# ceilings themselves are enforced by TestAllocCeilings in each package.
bench-codec:
	$(GO) test -run '^$$' -bench . -benchmem \
		./internal/wire/ ./internal/sigmap/ ./internal/gtp/ ./internal/q931/ ./internal/gsm/

# Scenario workload sweep (mobility churn, flash crowd, day-in-the-life),
# written to BENCH_scenarios.json in the working dir.
bench-scenarios:
	$(GO) run ./cmd/vgprs-bench -only scenarios -json

# Media-plane sweep (concurrent calls x per-link loss rate, per-call
# E-model MOS distributions), written to BENCH_media.json in the working
# dir.
bench-media:
	$(GO) run ./cmd/vgprs-bench -only media -json

# Scale sweep through the complete Fig 2(b) topology (VMSC, VLR, HLR, SGSN,
# GGSN, gatekeeper, directory): bytes/subscriber with each node's share,
# attach and end-to-end call-setup throughput at full residency, and the
# cancel-all recycle audit, written to BENCH_scale.json in the working dir.
# CI runs the 100k point; the committed artifact also carries 500k and 1M
# (make bench-scale SCALE_SUBS=100000,500000,1000000).
SCALE_SUBS ?= 100000
bench-scale:
	$(GO) run ./cmd/vgprs-bench -only scale -scale-subs $(SCALE_SUBS) -json

# "What is in the heap": the scale run writes a heap profile once the
# whole population is resident and collected (MemProfileRate 512, so a
# 100-byte row shows), and pprof lists who holds it. alloc_space in the same
# file is everything allocated on the way there.
HEAP_SUBS ?= 30000
heap-profile:
	$(GO) run ./cmd/vgprs-bench -only scale -scale-subs $(HEAP_SUBS) -heapprofile heap.pprof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=25 heap.pprof

# Non-test Go lines per package directory and their total, outside the bench/
# module: the size figure a simplification is measured by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# Machine-readable experiment results (BENCH_<id>.json in the working dir).
bench-json:
	$(GO) run ./cmd/vgprs-bench -json

# Full day-in-the-life soak (4 simulated hours) with the leak gate.
soak:
	$(GO) test ./internal/netsim/scenario/ -run TestDaySoak -v

# Reduced soak for CI: same invariants, shorter simulated day, race
# detector on.
soak-short:
	$(GO) test -race -short ./internal/netsim/scenario/ -v
