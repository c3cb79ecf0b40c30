GO ?= go

.PHONY: all build vet lint test race bench bench-sim bench-tcpstack bench-shm bench-replication experiments check golden loc trace chaos diag

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# ftvet enforces the two FT invariants go vet cannot see and no runtime
# check catches in every schedule: determinism of replicated code and a
# cycle-free lock order. The rest are runtime checks. See DESIGN.md §10.
lint:
	$(GO) run ./cmd/ftvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One pass over every micro-benchmark; -benchtime=1x keeps it a smoke test
# rather than a measurement run. The experiments are `make experiments`.
bench:
	$(GO) test -bench=. -benchtime=1x ./...

# The sim layer's micro-benchmarks: host ns/op and allocs/op of a block
# point that resumes itself, a wake-up and the switch it causes (two
# processes, and 300 with cold stacks), a one-shot callback fired or
# cancelled, and a re-armed event (DESIGN.md §19). Blocking, waking and
# re-arming read 0 allocs/op.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim

# The tcpstack layer's micro-benchmarks: host ns/op, MB/s and allocs/op of
# a 1 MiB bulk transfer, a short connection and a segment through a holding
# gate (DESIGN.md §20). The steady-state count — zero per MSS-sized write:
# Recv lends its bytes from a buffer the connection reuses — is pinned by
# TestEstablishedTransferAllocs, a short connection's by
# TestShortConnectionAllocs.
bench-tcpstack:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/tcpstack

# The replication fabric's micro-benchmarks (DESIGN.md §21): host ns/op and
# allocs/op of a reserve → put → commit → receive cycle at batch 1/4/32 and
# of a send that finds the ring full, and of an outbox add → merge → flush →
# receive cycle through its spill server (bench-shm); of a recorded section, a
# replayed one and the two with the ring between them, and of a tcprep sync
# update (bench-replication). Everything reads 0 allocs/op; the counts are
# pinned by TestRingCycleAllocatesNothing, TestBlockedSendAllocatesNothing,
# TestGrowingBacklogAllocatesPerChunk, TestSectionsAllocateNothing and
# TestSyncUpdatesAllocateNothing.
bench-shm:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/shm

bench-replication:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/replication ./internal/tcprep

# The checked-in measurements: experiments.json, every ftbench report at
# seed 1 (paper figures at -quick size), the record EXPERIMENTS.md quotes
# its tables from. Every number is a function of the seed, so the file is
# rewritten byte for byte unless the code moved a number — CI's
# measurements job runs this and fails on `git diff`; after a deliberate
# change, run it and commit the result.
experiments:
	$(GO) run ./cmd/ftbench -exp all -quick -json experiments.json

check: vet lint build race bench golden loc

# The one golden-trace check: a small failover run at the degenerate
# settings — one det shard, two replicas, epochs off, static batching —
# must reproduce the trace pinned in goldens/ftsim-trace.sha256 byte for
# byte. Every mode added since the trace was pinned has to leave it alone.
golden:
	$(GO) run ./cmd/ftsim -size 8388608 -fail 2s -shards 1 -replicas 2 -trace golden-check.json -flight flight-golden.txt
	sha256sum --check goldens/ftsim-trace.sha256

# Non-test Go lines in the four packages the ROADMAP's "collapse the mode
# matrix" item is measured by, then internal/rejoin, internal/kernel and the
# experiment harness (internal/bench + cmd/ftbench, the ROADMAP's "one
# measurement system" item) on their own lines — outside the total, so the
# ROADMAP's series stays comparable.
#
# The ceilings are a ratchet: loc fails — and with it check — when one of
# the four packages, internal/kernel or the harness is over its ceiling, so
# the series cannot drift up silently. A PR that shrinks a package lowers
# its ceiling to the number it reaches; raising one needs a reason in the
# PR text.
LOC_CEILINGS := core=2040 replication=2896 tcprep=1559 shm=1131
LOC_KERNEL_CEILING := 870
LOC_BENCH_CEILING := 2310

loc:
	@count() { for d; do ls $$d/*.go; done | grep -v _test.go | xargs cat | wc -l; }; total=0; over=0; \
	check() { \
		name=$$1 ceiling=$$2; shift 2; \
		n=$$(count "$$@"); printf '%-12s %5d  (ceiling %d)\n' $$name $$n $$ceiling; \
		[ $$n -le $$ceiling ] || { echo "loc: $$* is over its ceiling" >&2; over=1; }; \
	}; \
	for c in $(LOC_CEILINGS); do check $${c%=*} $${c#*=} internal/$${c%=*}; total=$$((total + n)); done; \
	printf '%-12s %5d\n' total $$total rejoin $$(count internal/rejoin); \
	check kernel $(LOC_KERNEL_CEILING) internal/kernel; \
	check bench $(LOC_BENCH_CEILING) internal/bench cmd/ftbench; exit $$over

# A small failover run with full tracing: writes trace.json (open it at
# https://ui.perfetto.dev) and prints the flight-recorder dump.
trace:
	$(GO) run ./cmd/ftsim -size 33554432 -fail 2s -trace trace.json

# Chaos smoke: each preset schedule kills the primary, lets the freed
# partition rejoin and resync, then kills again (DESIGN.md §12). Fails
# if the client-visible stream is damaged, a resync aborts, or the
# deployment dies; flight-*.txt holds the post-mortem on failure.
chaos:
	$(GO) run ./cmd/ftsim -size 134217728 -chaos kill-rejoin-kill -flight flight-krk.txt
	$(GO) run ./cmd/ftsim -size 134217728 -chaos hb-storm -flight flight-hbs.txt
	$(GO) run ./cmd/ftsim -size 134217728 -chaos dup-delay -flight flight-dd.txt

# Divergence diagnosis demo (DESIGN.md §16): run the same deployment
# twice — once clean, once with the primary killed mid-stream — and let
# ftdiag name the first det tuple the failed run never records, with its
# minimal causal slice. The diff exiting 1 is the expected outcome (a
# divergence was found); exiting 0 means the kill diverged nothing and
# the target fails.
diag:
	$(GO) run ./cmd/ftsim -size 8388608 -events diag-clean.jsonl
	$(GO) run ./cmd/ftsim -size 8388608 -fail 40ms -events diag-failed.jsonl
	$(GO) run ./cmd/ftdiag diff diag-clean.jsonl diag-failed.jsonl; test $$? -eq 1
	$(GO) run ./cmd/ftdiag attribute diag-failed.jsonl
