# EdgeBOL build/verify entry points. `make check` is the CI gate.

GO ?= go

.PHONY: all build test race lint lint-baseline fmt fmt-check vet check bench bench-fleet bench-check sparse-equiv acq-equiv metrics-smoke ckpt-smoke fleet-smoke clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector; the concurrent
# O-RAN transport/dataplane/shutdown regression lives in internal/oran.
race:
	$(GO) test -race ./...

# lint runs go vet plus the domain-aware edgebol-lint suite (all nine
# analyzers; see `go run ./cmd/edgebol-lint -list`), subtracting the
# committed accepted-findings baseline.
lint: vet
	$(GO) run ./cmd/edgebol-lint -baseline .lint-baseline.json ./...

# lint-baseline regenerates the committed baseline. Regeneration is
# constrained: a finding not already in the baseline fails the target
# (fix or waive it instead), so the baseline only ever shrinks as
# accepted findings are cleaned up.
lint-baseline:
	$(GO) run ./cmd/edgebol-lint -baseline .lint-baseline.json \
		-write-baseline .lint-baseline.json ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build fmt-check lint test race sparse-equiv acq-equiv metrics-smoke ckpt-smoke fleet-smoke

# sparse-equiv runs the sparse-vs-exact equivalence suite on its own:
# posterior error bounds against the exact oracle, bitwise sweep-plan and
# batch agreement, auto-switch/convert equivalence, checkpoint round-trips,
# and the selection-regret replay gate. The tests also run under `test`;
# the dedicated target exists so CI names a sparse-accuracy regression
# instead of burying it in the full suite.
sparse-equiv:
	$(GO) test -count=1 -run 'TestSparse|TestConvertToSparse' ./internal/gp
	$(GO) test -count=1 -run 'TestSparse|TestAutoSwitch|TestEngine|TestCheckpointRestoreEquivalence|TestReadCheckpointInfoReportsEngine' ./internal/core
	$(GO) test -count=1 -run 'TestLongHorizon' ./internal/experiment

# acq-equiv runs the acquisition equivalence suite: bitwise
# SweepSubset-vs-PosteriorBatch agreement, SelectControl against a
# brute-force scan of the selection rule written in test code, the
# exhaustive-vs-adaptive twin-agent exactness contract on small
# (randomized, non-uniform, split-carrying) grids, bounded regret within
# the evaluation budget on grids above the auto threshold, grid
# index-algebra properties, and the adaptive checkpoint round-trip.
acq-equiv:
	$(GO) test -count=1 -run 'TestSweepSubset' ./internal/gp
	$(GO) test -count=1 -run 'TestSelectControlMatchesBruteForce|TestGridNonUniform|TestAcqEquiv|TestAcqAdaptive|TestAcqAuto|TestAcqCheckpoint' ./internal/core

# metrics-smoke boots the O-RAN deployment with -metrics, curls /metrics,
# and greps for the documented core/gp/oran/testbed metric families.
metrics-smoke:
	sh scripts/metrics_smoke.sh

# ckpt-smoke runs the kill-and-resume workflow through the edgebol-sim
# CLI: checkpoint every 6 periods, exit at 12, resume from the latest
# snapshot, verify the resume period and the ckpt inspection output.
ckpt-smoke:
	sh scripts/ckpt_smoke.sh

# fleet-smoke runs the multi-cell workflow through the edgebol-sim CLI:
# a 3-cell fleet (per-cell agents behind per-cell O-RAN stacks) plus a
# warm-started joiner, checking the roll-ups, the pooled seeding, and
# that the warm joiner converges no slower than a cold twin.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# bench reruns the GP-inference benchmarks (posterior sweep over the
# 14 641-point grid and full SelectControl periods; exact engine at
# t ∈ {50, 200, 1000}, sparse inducing-point engine out to t = 10⁴) and
# regenerates BENCH_gp.json, joining the recorded pre-optimization
# baseline in results/bench_before.txt to report speedups.
bench:
	$(GO) test -run '^$$' -bench 'PosteriorBatch|SelectControl|GridSweep' -benchtime 3x \
		./internal/gp ./internal/core | tee results/bench_after.txt
	$(GO) run ./cmd/benchjson -before results/bench_before.txt \
		-after results/bench_after.txt -out BENCH_gp.json \
		-note "before = generic block-4 engine at the previous release (results/bench_before.txt); after = AVX fused-panel solves plus grid SweepPlan distance tables on the same host. vs_generic compares the SweepPlan against the generic path within the after run. engine=sparse entries are the m=128 inducing-point engine, flat in t; exact entries above t=1000 skip by policy. grid= entries compare the exhaustive sweep against the adaptive coarse-to-fine engine at t=200 as the control space grows to the 31^4x8 = 7.4M-candidate split-inference grid; 31^4x8 has no exhaustive twin (extrapolate x8 from grid=31p4, ~680x adaptive speedup at ~4% of candidates evaluated). See DESIGN.md 14."
	@echo "wrote BENCH_gp.json"
	$(MAKE) bench-fleet

# bench-fleet measures one fleet control period (per-cell acquisition
# sweep + the full per-cell O-RAN round trip) at 4/16/64 cells and
# records BENCH_fleet.json. No before-baseline: the fleet subsystem has
# no pre-optimization ancestor; the JSON is the tracked reference.
bench-fleet:
	$(GO) test -run '^$$' -bench 'FleetStep' -benchtime 3x \
		./internal/fleet | tee results/bench_fleet.txt
	$(GO) run ./cmd/benchjson -after results/bench_fleet.txt -out BENCH_fleet.json \
		-note "One Fleet.Step at 4/16/64 cells: every cell's full acquisition sweep (sparse engine, m=16, 3-level grid) plus its own loopback A1/E2/O1 round trip, sharded over the default worker pool. Expect near-linear growth in the cell count. See DESIGN.md 13."
	@echo "wrote BENCH_fleet.json"

# bench-check is the CI regression gate: rerun the tracked benchmarks in
# short mode and fail if any regressed >25% against BENCH_gp.json. Skips
# itself on foreign CPUs or with EDGEBOL_SKIP_BENCH_CHECK=1.
bench-check:
	sh scripts/bench_regress.sh

clean:
	$(GO) clean ./...
