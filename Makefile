GO ?= go

.PHONY: build test vet race verify bench bench-curve bench-gate bench-pins chaos soak recycle-soak fleet-soak serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Data-race check over the packages the datapath fast path touches most,
# plus the telemetry layer (concurrent Snapshot vs a running sim), plus the
# blocking-bridge layers (host TCP, hostnet facade — alien goroutines vs
# the event loop), plus the control planes whose goroutines cross the sim
# boundary (ops driver/dead-man switch, supervision tree, raw-iron
# lifecycle), plus the shard-determinism property (full chaos soak at
# 1/2/4 workers — the run that actually exercises cross-domain
# synchronization under load).
race:
	$(GO) test -race ./internal/gateway ./internal/netsim ./internal/sim \
		./internal/obs ./internal/farm ./internal/host ./internal/hostnet \
		./internal/ops ./internal/supervisor ./internal/rawiron
	$(GO) test -race -run TestShardDeterminism ./internal/experiments -count=1

# Tier-1 verification recipe (see ROADMAP.md).
verify: build vet test race

# Chaos soak: the Botfarm demo under the "soak" fault profile (≥5% loss,
# reorder/dup/corruption, link flaps, a CS crash, verdict stalls, a sink
# outage) on two pinned seeds, run twice each — the journals must be
# byte-identical and every graceful-degradation invariant must hold.
chaos:
	$(GO) test -run TestChaosSoak ./internal/experiments -count=1 -v

# Recovery soak: the supervised kill-storm (3-member containment cluster,
# six round-robin CS kills) on two pinned seeds at 1 and 4 workers under
# the race detector, plus the workers-1/2/4 determinism proof (byte-equal
# journals, identical recovery intervals and health histories). Every kill
# must be detected by missed heartbeats, failed over fail-closed, and
# repaired within the recovery bound with zero probe escapes.
soak:
	$(GO) test -race -run 'TestRecoverySoak' ./internal/experiments -count=1 -v

# Recycling soak: three subfarms of raw-iron inmates cycling detonate →
# capture → reimage → re-admit under the "reimage" fault profile (hung
# netboots, stalled/corrupted transfers, stuck power ports) at 1/2/4
# workers. Every injected fault must end in a retry or a breaker
# quarantine — no wedged machines — the cycle floors must hold, flow
# tables must drain, no probe traffic may escape, and the journals must
# be byte-identical across worker counts.
recycle-soak:
	$(GO) test -run TestRecycleSoak ./internal/experiments -count=1 -v

# Fleet lockdown soak: three supervised subfarms under the "blackout"
# profile — sink crashes, a controller hang, a recycler wedge, and a
# containment-server kill storm past alpha's circuit breaker. The
# supervision tree must recover every survivable fault, escalate the
# unsurvivable one through subfarm fail-closed lockdown to global
# dead-man lockdown, hold zero probe escapes before/during/after the
# lockdown, and drain every flow table empty — with byte-identical
# journals and DeepEqual escalation records at 1/2/4 workers on both the
# single-internet and two-shard external topologies.
fleet-soak:
	$(GO) test -race -run TestFleetLockdownSoak ./internal/experiments -count=1 -v

# Serve-mode smoke: boot `gqfarm -serve` with raw-iron inmates, poll
# /healthz, scrape /metrics in both machine formats, list /machines, read
# one SSE event, POST a policy swap, force one recycle, then SIGTERM and
# require a clean exit 0.
serve-smoke:
	./scripts/serve_smoke.sh

# Benchmark the gateway datapath and merge the results into
# BENCH_gateway.json under $(BENCH_LABEL), alongside prior sections.
BENCH_LABEL ?= fastpath
BENCH_OUT   ?= BENCH_gateway.json

bench:
	$(GO) test -run '^$$' -bench 'ScalabilityGateway|Ablation|ShardedFarmDense' -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -label $(BENCH_LABEL) -out $(BENCH_OUT)
	$(GO) test -run '^$$' -bench SupervisorRecovery -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -label supervisor -out $(BENCH_OUT)
	$(GO) test -run '^$$' -bench RecyclePipeline -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -label recycle -out $(BENCH_OUT)
	$(GO) test -run '^$$' -bench LockdownEscalation -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -label lockdown -out $(BENCH_OUT)
	$(GO) test -run '^$$' -bench $(MICRO_BENCH) -benchmem -cpu 1 $(MICRO_PKGS) \
		| $(GO) run ./scripts/benchjson -label micro -out $(BENCH_OUT)

# Layer microbenchmarks: the sim event core, one netsim port hop, and the
# netstack checksum. Their allocs/op are gated by bench-gate (the event
# core's Timer and a port hop must stay allocation-free). They are
# single-threaded, so they run at -cpu 1 and keep one benchmark name on
# every machine.
MICRO_BENCH = 'ScheduleStep|TimerReset|PortHop|Checksum1460'
MICRO_PKGS  = ./internal/sim ./internal/netsim ./internal/netstack

# Scaling curve: the dense sharded farm (serial vs sharded vs external
# shards) and the parallel gateway datapath at 1, 2, and 4 CPUs,
# recorded side by side under the "curve" section. Benchmark names
# carry go test's -N GOMAXPROCS suffix, so one section holds every
# point of the curve and the gate only ever compares like-for-like
# CPU counts.
bench-curve:
	$(GO) test -run '^$$' -bench 'ShardedFarmDense|ScalabilityGatewayParallel' -benchmem -benchtime 1x -cpu 1,2,4 . \
		| $(GO) run ./scripts/benchjson -label curve -out $(BENCH_OUT)

# Allocation gate for the gateway fast path: re-run the scalability
# benchmarks and fail if allocs/op regressed more than 5% against the
# stored $(BENCH_LABEL) section (ns/op is reported, not gated). The
# supervisor section additionally gates recovery_ms — virtual crash-to-
# healthy time, deterministic per seed — at 5%, and the recycle section
# gates specimens_day (virtual recycling throughput, higher is better)
# against a 5% decrease, and the micro section gates the layer
# microbenchmarks' allocs/op. Run this alongside `make verify` before landing
# datapath, supervision, or lifecycle changes.
bench-gate:
	$(GO) test -run '^$$' -bench ScalabilityGateway -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -compare $(BENCH_LABEL) -out $(BENCH_OUT)
	$(GO) test -run '^$$' -bench SupervisorRecovery -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -compare supervisor -out $(BENCH_OUT) -max-recovery-regress 5
	$(GO) test -run '^$$' -bench RecyclePipeline -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -compare recycle -out $(BENCH_OUT) -max-specimens-regress 5
	$(GO) test -run '^$$' -bench LockdownEscalation -benchmem -benchtime 3x . \
		| $(GO) run ./scripts/benchjson -compare lockdown -out $(BENCH_OUT) -max-lockdown-regress 5
	$(GO) test -run '^$$' -bench $(MICRO_BENCH) -benchmem -cpu 1 $(MICRO_PKGS) \
		| $(GO) run ./scripts/benchjson -compare micro -out $(BENCH_OUT)

# Pinned journal digests: the farm benchmark's smoke runs, whose seed-1
# journals must hash to the digests pinned in farmbench/bench_test.go.
# Any change to event order, RNG draws or journal bytes moves them, so
# this is the behaviour-preservation check for performance work.
bench-pins:
	cd farmbench && $(GO) test -count=1 .
