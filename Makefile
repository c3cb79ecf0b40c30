GO ?= go

.PHONY: all build fmt vet lint test race bench bench-sim bench-tcpstack bench-shm bench-replication experiments check golden loc trace chaos diag reach pair plants

all: check

build:
	$(GO) build ./...

# gofmt over the tracked Go files outside testdata/ (the analyzer fixtures
# there are parsed as written): a file it would reformat fails the target.
fmt:
	@out=$$(gofmt -l $$(git ls-files '*.go' | grep -v 'testdata/')); \
	[ -z "$$out" ] || { echo "gofmt would reformat:" >&2; echo "$$out" >&2; exit 1; }

vet:
	$(GO) vet ./...

# ftvet runs its one checker, nondet (internal/analysis/nondet), on the
# one FT invariant go vet cannot see and no runtime check catches in every
# schedule: determinism of replicated code. The rest, a cycle-free lock
# order among them, are runtime checks. See DESIGN.md §10.
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
# processes, and 300 with cold stacks), a one-shot callback fired, and a
# re-armed event (DESIGN.md §19). Everything reads 0
# allocs/op — a one-shot's record comes from the simulation's free list —
# and TestBlockingAllocatesNothing pins it.
bench-sim:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sim

# The tcpstack layer's micro-benchmarks: host ns/op, MB/s and allocs/op of
# a 1 MiB bulk transfer, a short connection and a segment through a holding
# gate (DESIGN.md §20). The steady-state count — zero per MSS-sized write:
# Recv lends its bytes from a buffer the connection reuses — is pinned by
# TestEstablishedTransferAllocs, a short connection's (22 allocs/op, what
# the client task costs: connection records are reused) by
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

# A host-cost comparison with another revision: make pair PARENT=<rev>
# builds the benchmark harness at <rev> (extracted under .bench_build/pair)
# and at the tree, runs ten pairs of each workload at seed 1, 10 s and
# --trace 0, alternating which side runs first, and prints each metric's
# medians and quartiles, the pairs won, a Mann-Whitney test and the
# smallest effect the run could detect (cmd/ftdiag pair.go).
pair:
	$(GO) run ./cmd/ftdiag pair $(PARENT)

# The bugs as data (ROADMAP item 12): each testdata/plants/<name>.patch is
# one bug of DESIGN.md §10's table, its header naming the finders §10
# credits and a time budget. This applies each patch to a copy of HEAD
# extracted under .bench_build/plants, builds it, runs its finders and
# prints the found/missed matrix (cmd/ftdiag plants.go); a patch that no
# longer applies or builds, or a finder that misses, fails the target.
# Commit first: the plants are applied to HEAD, not to the working tree.
plants:
	$(GO) run ./cmd/ftdiag plants testdata/plants/*.patch

# The checked-in measurements: experiments.json, every ftbench report at
# seed 1 (paper figures at -quick size), the record EXPERIMENTS.md quotes
# its tables from. Every number is a function of the seed, so the file is
# rewritten byte for byte unless the code moved a number — CI's
# measurements job runs this and fails on `git diff`; after a deliberate
# change, run it and commit the result.
experiments:
	$(GO) run ./cmd/ftbench -exp all -quick -json experiments.json

check: fmt vet lint build race bench golden loc

# The one golden-trace check: a small failover run (scenarios/golden.json:
# an 8 MiB download, the primary killed at 2 s by its chaos schedule) at the
# degenerate settings — one det shard, two replicas, epochs off —
# followed by the rejoin every deployment runs (rejoin is the one failure
# model, not a setting), must reproduce the trace pinned in
# goldens/ftsim-trace.windows byte for byte: one digest per process row per
# 100 ms of virtual time, so a mismatch names the first window that moved
# and its first event. Every mode added since the trace was pinned has to
# leave it alone. To re-pin after a deliberate change:
# go run ./cmd/ftdiag windows golden-check.json > goldens/ftsim-trace.windows
golden:
	$(GO) run ./cmd/ftsim -scenario scenarios/golden.json -trace golden-check.json -flight flight-golden.txt
	$(GO) run ./cmd/ftdiag windows golden-check.json goldens/ftsim-trace.windows

# Non-test Go lines in the four packages the ROADMAP's "collapse the mode
# matrix" item is measured by, then internal/rejoin, internal/kernel and the
# experiment harness (internal/bench + cmd/ftbench, the ROADMAP's "one
# measurement system" item) on their own lines — outside the total, so the
# ROADMAP's series stays comparable — and DESIGN.md's line count, which
# says what holds and which test pins it, not how the numbers moved
# (CHANGES.md records that).
#
# The ceilings are a ratchet: loc fails — and with it check — when one of
# the four packages, internal/kernel, the harness or DESIGN.md is over its
# ceiling, so the series cannot drift up silently. A PR that shrinks a package lowers
# its ceiling to the number it reaches; raising one needs a reason in the
# PR text.
LOC_CEILINGS := core=1875 replication=2633 tcprep=1457 shm=1124
LOC_KERNEL_CEILING := 848
LOC_BENCH_CEILING := 2078
LOC_DESIGN_CEILING := 1371

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
	check bench $(LOC_BENCH_CEILING) internal/bench cmd/ftbench; \
	n=$$(wc -l < DESIGN.md); printf '%-12s %5d  (ceiling %d)\n' design $$n $(LOC_DESIGN_CEILING); \
	[ $$n -le $(LOC_DESIGN_CEILING) ] || { echo "loc: DESIGN.md is over its ceiling" >&2; over=1; }; exit $$over

# A small failover run with full tracing: writes trace.json (open it at
# https://ui.perfetto.dev) and prints the flight-recorder dump.
trace:
	$(GO) run ./cmd/ftsim -scenario scenarios/failover.json -trace trace.json

# Chaos smoke: each preset schedule (scenarios/<preset>.json, a 128 MiB
# download) kills the primary, lets the freed partition rejoin and resync,
# then kills again (DESIGN.md §12). Fails if the client-visible stream is
# damaged, a resync aborts, or the deployment dies; flight-*.txt holds the
# post-mortem on failure.
chaos:
	$(GO) run ./cmd/ftsim -scenario scenarios/kill-rejoin-kill.json -flight flight-krk.txt
	$(GO) run ./cmd/ftsim -scenario scenarios/hb-storm.json -flight flight-hbs.txt
	$(GO) run ./cmd/ftsim -scenario scenarios/dup-delay.json -flight flight-dd.txt

# Divergence diagnosis demo (DESIGN.md §16): run the same deployment
# twice — once clean, once with the primary killed mid-stream — and let
# ftdiag diff them. The promoted survivor's fork carries the recorded
# history on, so the killed run's tuple order agrees with the clean one:
# the diff exits 0, and exiting 1 (a divergence) fails the target. The
# tuple the kill left unreplayed is named by the flight dump's replay
# frontier (ftsim -flight).
diag:
	$(GO) run ./cmd/ftsim -scenario scenarios/diag-clean.json -events diag-clean.jsonl
	$(GO) run ./cmd/ftsim -scenario scenarios/diag-failed.json -events diag-failed.jsonl
	$(GO) run ./cmd/ftdiag diff diag-clean.jsonl diag-failed.jsonl
	$(GO) run ./cmd/ftdiag attribute diag-failed.jsonl

# What no run reaches (ROADMAP item 10): the benchmark harness, ftbench,
# ftsim, ftdiag and ftfuzz built with coverage of the whole module run the
# four workloads at 2 s (compress in both driver forms too), every
# experiment at -quick, the three chaos presets, the runs of trace, golden
# and diag and two hundred fuzz scenarios into one coverage directory. ftdiag reach then prints every non-test
# function no run executed and every internal/ package no binary links,
# and fails unless that list equals the names in goldens/reach.txt, where
# each survivor names the test or tool that keeps it. A change that leaves
# code unreached deletes it, makes a run reach it, or pins it with its
# keeper; one that makes a run reach a pinned name drops its line.
REACH := .reach
reach:
	rm -rf $(REACH) && mkdir -p $(REACH)/cov $(REACH)/out
	for p in benchmark cmd/ftbench cmd/ftsim cmd/ftdiag cmd/ftfuzz; do $(GO) build -cover -coverpkg=repro/... -o $(REACH)/ ./$$p || exit 1; done
	set -e; export GOCOVERDIR=$(REACH)/cov B=$(REACH) O=$(REACH)/out; \
	for w in web-short compress kv-mixed-n3 stream-failover; do $$B/benchmark -workload $$w -seconds 2 -tracedir $$O > $$O/$$w.txt; done; \
	for t in 0 1; do $$B/benchmark -workload compress -seconds 2 -trace $$t > /dev/null; done; \
	$$B/ftbench -exp all -quick > /dev/null; \
	for c in kill-rejoin-kill hb-storm dup-delay; do $$B/ftsim -scenario scenarios/$$c.json -flight $$O/flight-$$c.txt > /dev/null; done; \
	$$B/ftsim -scenario scenarios/failover.json -trace $$O/trace.json > /dev/null; \
	$$B/ftsim -scenario scenarios/golden.json -trace $$O/golden-check.json -flight $$O/flight-golden.txt > /dev/null; \
	$$B/ftdiag windows $$O/golden-check.json goldens/ftsim-trace.windows; \
	$$B/ftsim -scenario scenarios/diag-clean.json -events $$O/diag-clean.jsonl > /dev/null; \
	$$B/ftsim -scenario scenarios/diag-failed.json -events $$O/diag-failed.jsonl > /dev/null; \
	$$B/ftdiag diff $$O/diag-clean.jsonl $$O/diag-failed.jsonl > /dev/null; \
	$$B/ftdiag attribute $$O/diag-failed.jsonl > /dev/null; \
	$$B/ftfuzz -seed 1 -n 200 -found $$O/found > /dev/null
	$(GO) tool covdata func -i $(REACH)/cov > $(REACH)/func.txt
	$(GO) list -f '{{if .GoFiles}}{{.ImportPath}}{{end}}' ./internal/... > $(REACH)/pkgs.txt
	$(GO) run ./cmd/ftdiag reach $(REACH)/func.txt $(REACH)/pkgs.txt goldens/reach.txt
