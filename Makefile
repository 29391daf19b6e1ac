# EdgeBOL build/verify entry points. `make check` is the CI gate.

GO ?= go

.PHONY: all build test race lint lint-baseline fmt fmt-check vet check bench-smoke sparse-equiv acq-equiv metrics-smoke ckpt-smoke fleet-smoke examples-smoke clean

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

# vet also type-checks the arm64 build, so the non-amd64 fallbacks
# (panel_noasm.go) and every test file compile off amd64, and checks with
# scripts/nofma.sh that no function on the sweep ≡ Posterior contract path
# compiles to a fused multiply-add on arm64.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	sh scripts/nofma.sh

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: build fmt-check lint test race sparse-equiv acq-equiv metrics-smoke ckpt-smoke fleet-smoke examples-smoke bench-smoke

# sparse-equiv runs the sparse-vs-exact equivalence suite on its own:
# posterior error bounds against the exact oracle, bitwise sweep-plan
# agreement with Posterior, checkpoint round-trips, the selection-regret
# replay gate, and the long-horizon run on the sparse engine. The tests
# also run under `test`; the dedicated target exists so CI names a
# sparse-accuracy regression instead of burying it in the full suite.
# scripts/test_gate.sh fails a gate when a member of its -run pattern
# matches no test, so a renamed test cannot leave the gate silently.
sparse-equiv:
	sh scripts/test_gate.sh ./internal/gp 'TestSparse'
	sh scripts/test_gate.sh ./internal/core 'TestSparse|TestEngine|TestCheckpointRestoreEquivalence|TestReadCheckpointInfoReportsEngine'
	sh scripts/test_gate.sh ./internal/experiment 'TestLongHorizon'

# acq-equiv runs the acquisition equivalence suite: bitwise
# SweepSubset-vs-Posterior agreement (shared kernel columns, the sparse
# group's one K_mm solve with the factor compare that admits a plan to
# it, and the mean-only screen included), the AVX2 covariance kernel and
# (2, 3) fill against their scalar loops for every family, tail length
# and offset, the init probe's power to tell math.Exp's FMA and non-FMA
# sequences apart, a rerun under GODEBUG=cpu.fma=off and cpu.avx=off that
# must fall back to the scalar loop, SelectControl against a brute-force
# scan of the selection rule written in test code (uniform, split-carrying and
# non-uniform grids, serial and sharded sweeps), a twin whose unscored
# slots hold garbage selecting exactly what its clean twin selects,
# bounded regret within the evaluation budget on grids above the auto
# threshold, grid index-algebra properties, the auto-mode resolution, and
# the adaptive checkpoint round-trip. It runs through scripts/test_gate.sh
# like sparse-equiv.
acq-equiv:
	sh scripts/test_gate.sh ./internal/gp 'TestSweepSubset|TestCovVectorMatchesScalar|TestFillSqDistVectorMatchesScalar|TestCovProbeDiscriminatesExp|TestCovProbeRejectsNonFMAExp'
	sh scripts/test_gate.sh ./internal/core 'TestSelectControlMatchesBruteForce|TestSelectControlIgnoresUnscoredSlots|TestGridNonUniform|TestAcqAdaptive|TestAcqAuto|TestAcqCheckpoint'

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

# examples-smoke builds every program under examples/ and runs it to
# completion, failing on a non-zero exit or on a run past 120 s: `build`
# only compiles them, and examples/tariff is the one program that drives
# decomposed-cost mode.
examples-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for ex in examples/*/; do \
		name=$$(basename $$ex); \
		echo "examples-smoke: $$name"; \
		$(GO) build -o "$$dir/$$name" ./$$ex && timeout 120 "$$dir/$$name" > /dev/null || \
			{ echo "examples-smoke: $$name failed"; exit 1; }; \
	done

# bench-smoke runs every benchmark in the module once, so the developer
# benchmarks cannot rot, then vets and tests edgebench, which is a module
# of its own that `./...` does not reach. It compares no timings: speed
# is judged by edgebench runs against the bounds in BENCHMARK.json.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...
	cd edgebench && $(GO) vet ./... && $(GO) test -count=1 ./...

clean:
	$(GO) clean ./...
