# Tier-1 gate: everything `make check` runs must stay green.
#
#   make check   vet + build + full test suite + race detector on the
#                hardened-runtime packages + short campaign, fleet,
#                serving-chaos, network-tier, crash/disk-fault and
#                repair-ladder lifetime soak smokes + a short fuzz pass over
#                the journal record and snapshot decoders, the f32 kernel
#                envelope, the crossbar tile pass and the /v1/infer handler
#                + the batched inference, training and multi-precision
#                performance gates (bench-smoke)
#   make check-stress  the network and serving soak tests and the netserve
#                package, three runs each, while two busy-loop processes
#                load the CPUs (killed when the recipe exits); not part of
#                check, run it after touching teardown or drain code
#   make bench-smoke  gate the batched monitor readout and the engine
#                training step against the committed baseline ratios (min
#                speedup over the legacy paths, max allocs/op), after
#                asserting bit-identity; fails on regression
#   make race    race detector over the whole tree (slow: retrains models
#                under the race runtime)
#   make soak    the full 20-campaign acceptance soak with scorecard
#   make fleet-soak  the full fleet crash/restart acceptance soak
#   make lifetime-soak  the full 9-seed repair-ladder lifetime soak
#   make net-soak  the full network-tier chaos soak (4 × 250k-request
#                campaigns = the million-request gate)
#   make crash-soak  the full durable-state torture matrix (8 seeded
#                matrices of crash-point × disk-fault cells)

GO ?= go

# The packages with concurrency-sensitive or newly hardened logic; raced on
# every check. `make race` covers the rest.
RACE_PKGS = ./internal/health/... ./internal/campaign/... ./internal/monitor/... \
            ./internal/detect/... ./internal/stats/... ./internal/repair/... \
            ./internal/fleet/... ./internal/journal/... ./internal/engine/... \
            ./internal/tensor/... ./internal/serve/... ./internal/tengine/... \
            ./internal/netserve/... ./internal/loadgen/... \
            ./internal/reram/... ./internal/hwcost/...

.PHONY: check vet build test race-fast race soak-smoke soak \
        fleet-soak-smoke fleet-soak serve-soak-smoke serve-soak \
        net-soak-smoke net-soak crash-soak-smoke crash-soak \
        lifetime-soak-smoke lifetime-soak fuzz-short bench-smoke check-stress

check: vet build test race-fast soak-smoke fleet-soak-smoke serve-soak-smoke net-soak-smoke crash-soak-smoke lifetime-soak-smoke fuzz-short bench-smoke
	@echo "check: PASS"

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race-fast:
	$(GO) test -race $(RACE_PKGS)

# internal/experiments retrains models and renders every figure; under the
# race runtime that exceeds go test's default 10m binary timeout
race:
	$(GO) test -race -timeout 45m ./...

# short-budget smoke: fewer campaigns than the acceptance gate, same scoring
soak-smoke:
	$(GO) run ./cmd/monitor -soak -campaigns 6

soak:
	$(GO) run ./cmd/monitor -soak -campaigns 20

# fleet crash/restart soak: each campaign is run crashed AND uninterrupted
# from the same seed; the gate demands zero state divergence after replay
fleet-soak-smoke:
	$(GO) run ./cmd/monitor -fleet-soak -campaigns 3

fleet-soak:
	$(GO) run ./cmd/monitor -fleet-soak -campaigns 10

# repair-ladder lifetime soak: each seed runs three arms — the scrub →
# remap → retrain escalation ladder, a retrain-only control in the same
# cost units, and the ladder crash-replayed from its journal — gated on
# the ladder beating the control on budget spend and retirements at an
# equal-or-better fidelity floor, zero untyped strategy errors, and exact
# crash/restart parity on journaled strategy decisions
lifetime-soak-smoke:
	$(GO) run ./cmd/monitor -lifetime-soak -seed 5 -campaigns 3

lifetime-soak:
	$(GO) run ./cmd/monitor -lifetime-soak -seed 3 -campaigns 9

# serving-frontend chaos soak: concurrent traffic with injected slow
# readouts, mid-request crashes and deadline storms; gated on zero hung
# requests, zero silent drops, bounded p99 vs a no-chaos baseline, and zero
# leaked goroutines
serve-soak-smoke:
	$(GO) run ./cmd/monitor -serve-soak -campaigns 3

serve-soak:
	$(GO) run ./cmd/monitor -serve-soak -campaigns 10

# network-tier chaos soak: seeded multi-tenant HTTP campaigns against the
# sharded serving tier over a live loopback listener, with device chaos and
# a mid-campaign graceful shard drain; gated on zero hung calls, exact typed
# accounting (admitted == terminal), post-drain liveness, bounded p99 vs a
# same-seed baseline, and zero leaked goroutines. The full gate runs
# million-request campaigns; the smoke keeps CI fast.
net-soak-smoke:
	$(GO) run ./cmd/monitor -net-soak -campaigns 2

net-soak:
	$(GO) run ./cmd/monitor -net-soak -campaigns 4 -net-requests 250000

# durable-state torture matrix: every (crash point × disk fault) cell runs a
# seeded fleet campaign over the snapshot-compacting journal store, kills it,
# injects the fault (torn tails, torn renames, corrupt snapshots, ENOSPC,
# failed fsyncs, crash-at-byte tears), recovers, and gates on bit-identical
# state, bounded WAL size and zero acknowledged-then-lost writes
crash-soak-smoke:
	$(GO) run ./cmd/monitor -crash-soak -campaigns 2 -devices 2

crash-soak:
	$(GO) run ./cmd/monitor -crash-soak -campaigns 8 -devices 3

# short coverage-guided pass over the journal record decoder, the snapshot
# decoder, the f32-vs-f64 matmul envelope, the mapped-corner crossbar tile
# pass against its naive full-array reference, and POST /v1/infer against a
# direct engine call plus the tier's accounting identities (committed
# corpora seed all five; go's fuzzer takes one target per invocation)
fuzz-short:
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzDecodeAll -fuzztime=10s
	$(GO) test ./internal/journal -run='^$$' -fuzz=FuzzDecodeSnapshot -fuzztime=10s
	$(GO) test ./internal/tensor -run='^$$' -fuzz=FuzzMatMulF32VsF64 -fuzztime=10s
	$(GO) test ./internal/reram -run='^$$' -fuzz=FuzzTiledMatVec -fuzztime=10s
	$(GO) test ./internal/netserve -run='^$$' -fuzz=FuzzInferHandler -fuzztime=10s

# the soak and netserve tests under CPU contention: teardown-ordering bugs
# (an http.Server.Shutdown waiting out a spare client connection) pass on an
# idle host and fail on a busy one. Two busy loops share the CPUs with the
# tests and are killed however the recipe exits.
check-stress:
	@sh -c 'yes >/dev/null & a=$$!; yes >/dev/null & b=$$!; \
	  trap "kill $$a $$b 2>/dev/null" EXIT; trap "exit 130" INT TERM; \
	  $(GO) test -count=3 -run "TestNetSoak|TestServeSoak" ./internal/campaign && \
	  $(GO) test -count=3 ./internal/netserve/...'

# performance gate on the batch-first inference AND training engines, the
# hardware cost accounting layer and the multi-precision kernel tier: the
# batched monitor readout must stay bit-identical to the serial path, the
# engine training step must land on bit-identical weights across the legacy,
# serial-engine and pooled-engine arms, metering must be numerically
# invisible (metered accelerator bit-identical to an unmetered twin) with a
# zero-allocation counting hot path, the f32 tier must hold its row-scaled
# ULP envelope, the i8 tier must equal the quantize-then-f64 oracle bitwise,
# and every path must beat its committed baseline ratio
bench-smoke:
	$(GO) run ./cmd/benchsmoke
