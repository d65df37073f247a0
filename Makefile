# Development targets. `make ci` is the extended verify recorded in
# ROADMAP.md: vet + sgmldbvet + build + the full test suite under the
# race detector + the chaos (fault-injection) suite + the crash-recovery
# suite + a fuzz smoke of the SGML parsers, the WAL record decoder, the
# text-index checkpoint decoder and the follower's record apply path +
# the network-service smoke (real sgmldbd process, load-generator burst,
# clean drain) + a smoke run of every benchmark + a build and test of
# the perfbench module.

GO ?= go

.PHONY: all build vet vet-fix-baseline test race bench fuzz chaos crash fsck smoke perfbench size ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	$(GO) run ./cmd/sgmldbvet -baseline vet_baseline.json ./...

# Regenerate the sgmldbvet baseline from the current findings. The tool
# exits nonzero when the baseline shrinks (entries were fixed), listing
# what was removed — review the diff and commit the regenerated file;
# a shrink is progress, but never a silent one.
vet-fix-baseline:
	$(GO) run ./cmd/sgmldbvet -baseline vet_baseline.json -write-baseline ./...

# -shuffle=on randomises test (and subtest) order: tests must not lean
# on residue from earlier tests, which matters doubly now that database
# state is published through shared snapshots.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# One iteration of every benchmark: catches bit-rot in the experiment
# harness without paying for full measurements.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x .

# A few seconds per fuzz target: catches parser panics on mutated input,
# and shipped records a follower applies into a broken state, without an
# open-ended run. Minimization is capped by executions — the
# default 60s-per-interesting-input budget stalls a smoke run.
fuzz:
	$(GO) test ./internal/sgml/ -run='^$$' -fuzz=FuzzParseDTD -fuzztime=5s -fuzzminimizetime=10x
	$(GO) test ./internal/sgml/ -run='^$$' -fuzz=FuzzParseDocument -fuzztime=5s -fuzzminimizetime=10x
	$(GO) test ./internal/wal/ -run='^$$' -fuzz=FuzzWALRecord -fuzztime=5s -fuzzminimizetime=10x
	$(GO) test ./internal/text/ -run='^$$' -fuzz=FuzzDecodeIndex -fuzztime=5s -fuzzminimizetime=10x
	$(GO) test . -run='^$$' -fuzz=FuzzApplyRecord -fuzztime=5s -fuzzminimizetime=10x

# The fault-injection suite under the race detector, alone and
# repeated: injected failures mid-load, evaluator panics, budget trips
# and admission shedding must leave the database serving, every run.
# TestChaosFailover* rides along: kill -9 photographs of the primary
# are promoted over and rejoined, and must converge on the new term.
chaos:
	$(GO) test -race -count=2 -run='TestChaos' .

# The crash-recovery suite under the race detector: the durable commit
# path is killed at every WAL seam (append, post-append, post-fsync,
# mid-checkpoint, pre-checkpoint-rename) and the data directory must
# recover to exactly the pre- or post-operation epoch, never a hybrid.
crash:
	$(GO) test -race -count=1 -run='TestCrash|TestDurable' .

# The integrity-checker suite under the race detector: online scrub,
# offline fsck verify/repair semantics (torn tails repaired, corruption
# refused), and the sgmldbfsck exit-code contract.
fsck:
	$(GO) test -race -count=1 -run='TestFsck|TestScrub' ./internal/wal ./cmd/sgmldbfsck

# End-to-end service smoke: a real sgmldbd process on loopback under a
# tenant config, a load-generator burst with zero tolerated errors, and
# a SIGTERM drain that must exit 0 — plus replication, crash-restart
# and kill-9 → promote → rejoin failover legs (scripts/service_smoke.sh).
smoke:
	sh scripts/service_smoke.sh

# The repository benchmark (perfbench/, BENCHMARK.json) is a module of
# its own built against this source, so the root `go build ./...` never
# compiles it: vet and test it here, so a facade change that breaks the
# benchmark fails CI instead of benchmark time.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The size metrics ROADMAP.md tracks: non-test Go lines of the root
# module and the exported symbols of sgmldb and internal/service.
size:
	sh scripts/size.sh

ci:
	$(GO) vet ./...
	$(GO) run ./cmd/sgmldbvet -baseline vet_baseline.json -json ./... > vet_findings.json
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...
	$(MAKE) chaos
	$(MAKE) crash
	$(MAKE) fsck
	$(MAKE) fuzz
	$(MAKE) smoke
	$(GO) test -run='^$$' -bench=. -benchtime=1x .
	$(MAKE) perfbench
