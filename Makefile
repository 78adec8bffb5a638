GO ?= go

.PHONY: all build test race bench bench-smoke bench-layers check chaos scenarios cover fuzz figures clean telemetry-budget supervision-budget opald-smoke service-chaos archive-check opaltop-check stubs stubs-check fmt-check

# Seeds per scenario when sweeping the checked-in chaos corpus.
SCENARIO_SEEDS ?= 10

# Maximum steady-state CPU overhead (percent) of the telemetry plane,
# enabled vs disabled, enforced by the telemetry-budget target.
TELEMETRY_BUDGET ?= 2.0

# Maximum steady-state CPU overhead (percent) of the recovery plane
# (self-heal supervision + periodic checkpointing) on a fault-free run,
# enforced by the supervision-budget target (DESIGN.md §11).
SUPERVISION_BUDGET ?= 2.0

# test-selected runs `go test $(1) -run '$(2)' $(3)`, but first asks
# `go test -list` what the pattern selects: -run with a pattern that matches
# nothing exits 0, so a renamed test would drop out of a pattern-selected
# target without anybody noticing.  Every |-alternative of the pattern must
# select at least one test.  A comma in $(1) is written $(comma), since a
# literal one would split the call's arguments.
comma := ,
define test-selected
@list=$$($(GO) test -list '$(2)' $(3)) || { echo "$$list"; exit 1; }; \
for alt in $$(echo '$(2)' | tr '|' ' '); do \
	echo "$$list" | grep -Eq "$$alt" || { echo "$@: '$$alt' selects no test in $(3)"; exit 1; }; \
done
$(GO) test $(1) -run '$(2)' $(3)
endef

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeat the chaos suite under the race detector: the seeded sim-fabric
# fault sweep, the live TCP server-kill tests, the self-healing respawn
# suite, the checkpoint-restart sweeps and two concurrent runs keeping
# their telemetry apart.  Then the handler run-ahead, reactor-server and
# per-phase level-of-detail property and lifecycle tests at GOMAXPROCS 1
# and 2: at 1 a session has no helper and runs every handler in place, at
# 2 handlers run ahead.
chaos:
	$(call test-selected,-race -count=5,TestChaos|TestParallelSurvives|TestServerQuit|TestSelfHeal|TestRestart|TestPeriodicCheckpoint|TestConcurrentRunsKeepTheirTelemetry,./internal/harness/ ./internal/md/ ./internal/scenario/)
	$(call test-selected,-race -count=10 -cpu 1$(comma)2,TestAheadBitIdentical|TestAheadReplay|TestAheadPanic|TestRunStopsHelper|TestServeDriversBitIdentical|TestReactor|TestAccountingLoDAlternates,./internal/pvm/ ./internal/md/ ./internal/sciddle/)

# Validate and sweep the checked-in chaos corpus through the scenario
# runner: every scenario over SCENARIO_SEEDS fault/kill seeds.
scenarios:
	$(GO) run ./cmd/scenario validate scenarios/
	$(GO) run ./cmd/scenario run -seeds $(SCENARIO_SEEDS) scenarios/

# Service-level chaos: the control plane's 25-seed worker-kill sweep plus
# the drain/overload/quota property tests, all under the race detector.
service-chaos:
	$(call test-selected,-race -count=1,TestServiceChaos|TestDrain|TestQuota|TestFIFO|TestFullQueue|TestSingleFlight|TestPanicIsolation|TestFailureIsTheCachedAnswer|TestHTTPOverload,./internal/ctlplane/)

# End-to-end opald smoke: boot the daemon, run a job and 1k predictions
# over HTTP, SIGTERM it, and require a clean exit with a flushed journal.
opald-smoke:
	$(call test-selected,-count=1,TestOpaldSmoke,.)

# The run-archive plane: warehouse crash-safety (SIGKILL child, corrupt
# corpus), query/watchdog units, the opalquery goldens, and the opald
# restart-persistence end-to-end test (duplicate served from the
# persisted result store without re-execution).
archive-check:
	$(GO) test -race -count=1 ./internal/archive/ ./cmd/opalquery/
	$(call test-selected,-count=1,TestOpaldRestartServesArchivedResult,.)

# The full tier-1 gate: what CI runs.
check:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(GO) build ./...
	$(MAKE) stubs-check
	$(GO) test ./...
	$(GO) test -race ./...
	$(MAKE) bench-layers
	$(MAKE) scenarios
	$(MAKE) service-chaos
	$(MAKE) opald-smoke
	$(MAKE) archive-check
	$(MAKE) opaltop-check
	$(MAKE) bench-smoke
	$(MAKE) telemetry-budget
	$(MAKE) supervision-budget

bench:
	$(GO) test -bench=. -benchmem .

# Every root and per-layer benchmark, one iteration each: they must still
# run (CI and check call this one line).
bench-layers:
	$(GO) test -run xxx -bench . -benchtime 1x . ./internal/pairlist ./internal/forcefield ./internal/molecule ./internal/vm ./internal/trace

# Two seconds of each simulator workload of the front-door benchmark at the
# golden seed.  The point is its per-op check, not the numbers: energies
# hash, makespan, every Breakdown term and the LoD phase counts of every
# harness.Run must equal bench/golden.json bit for bit, macro-replayed
# (sim-faultfree), fine-grained under a fault plane (sim-chaos) and with
# the pair kernels carrying the op (sim-physics) alike.
bench-smoke:
	$(GO) run ./bench -workload sim-faultfree -seed 1 -seconds 2 -trace 0
	$(GO) run ./bench -workload sim-chaos -seed 1 -seconds 2 -trace 0
	$(GO) run ./bench -workload sim-physics -seed 1 -seconds 2 -trace 0

# overhead-budget runs benchmark $(1) once and fails, under the label
# $(3), when the overhead% metric it reports — enabled-vs-disabled CPU
# time, a paired-median rusage comparison — exceeds $(2) percent.
define overhead-budget
@out=$$($(GO) test -bench $(1) -benchtime 1x -run xxx . | tee /dev/stderr); \
echo "$$out" | awk -v budget=$(2) -v label=$(3) ' \
	/$(1)/ { for (i = 1; i < NF; i++) if ($$(i+1) == "overhead%") ov = $$i } \
	END { \
		if (ov == "") { print label ": no overhead% metric found"; exit 1 } \
		if (ov + 0 > budget + 0) { printf "%s: overhead %s%% exceeds budget %s%%\n", label, ov, budget; exit 1 } \
		printf "%s: overhead %s%% within budget %s%%\n", label, ov, budget \
	}'
endef

# The telemetry plane, enabled vs disabled (see BenchmarkTelemetryOverhead).
telemetry-budget:
	$(call overhead-budget,BenchmarkTelemetryOverhead,$(TELEMETRY_BUDGET),telemetry-budget)

# The recovery plane, armed vs bare (see BenchmarkSupervisionOverhead).
supervision-budget:
	$(call overhead-budget,BenchmarkSupervisionOverhead,$(SUPERVISION_BUDGET),supervision-budget)

# The console's deterministic-frame contract: the opaltop goldens (live
# /streamz snapshot, archive replay, journal replay) plus the matrix
# reconciliation and LoD bit-identity integration tests.
opaltop-check:
	$(GO) test -race -count=1 ./cmd/opaltop/
	$(call test-selected,-count=1,TestCommMatrix,.)

cover:
	$(GO) test ./internal/... -cover

fuzz:
	$(GO) test ./internal/pvm/ -run xxx -fuzz FuzzBufferUnmarshal -fuzztime 15s
	$(GO) test ./internal/pvm/ -run xxx -fuzz FuzzFrameDecode -fuzztime 15s
	$(GO) test ./internal/sciddle/idl/ -run xxx -fuzz FuzzParse -fuzztime 15s
	$(GO) test ./internal/molecule/ -run xxx -fuzz FuzzRead -fuzztime 15s
	$(GO) test ./internal/md/ -run xxx -fuzz FuzzReadCheckpoint -fuzztime 15s
	$(GO) test ./internal/scenario/ -run xxx -fuzz FuzzScenarioParse -fuzztime 15s
	$(GO) test ./internal/archive/ -run xxx -fuzz FuzzArchiveRead -fuzztime 15s
	$(GO) test ./internal/ctlplane/ -run xxx -fuzz FuzzSubmit -fuzztime 15s

# Regenerate every paper table and figure at full problem scale (minutes).
figures:
	$(GO) run ./cmd/figures -scale 1 -out out

# Regenerate the Sciddle stubs from the IDL.
stubs:
	$(GO) run ./cmd/sciddlegen -pkg opalrpc -o internal/md/opalrpc/opalrpc.go internal/md/opal.idl

# Fail when any Go file is not gofmt-clean, listing the files.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Fail when the checked-in stubs differ from what the generator emits.
stubs-check: stubs
	git diff --exit-code internal/md/opalrpc/

clean:
	rm -rf out
