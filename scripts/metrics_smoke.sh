#!/bin/sh
# metrics_smoke.sh boots the full O-RAN deployment with the metrics
# endpoint enabled, curls /metrics, and greps for one documented metric
# name per instrumented layer (core, gp, oran, testbed). It is the CI
# proof that the exposition pipeline works end to end, not just in unit
# tests.
set -eu

cd "$(dirname "$0")/.."

port=18918
log=$(mktemp)
bin=$(mktemp)
trap 'kill $pid 2>/dev/null || true; rm -f "$log" "$bin"' EXIT

# Build first and exec the binary directly: killing a `go run` wrapper can
# orphan the child, leaving a stray server behind.
go build -o "$bin" ./cmd/oran-demo
"$bin" -periods 3 -metrics "127.0.0.1:$port" -hold 120s >"$log" 2>&1 &
pid=$!

# Poll until the endpoint answers (the demo needs a moment to bind).
body=""
for _ in $(seq 1 60); do
    if body=$(curl -fsS "http://127.0.0.1:$port/metrics" 2>/dev/null); then
        break
    fi
    if ! kill -0 $pid 2>/dev/null; then
        echo "oran-demo exited before serving metrics:" >&2
        cat "$log" >&2
        exit 1
    fi
    sleep 0.5
done
if [ -z "$body" ]; then
    echo "metrics endpoint never came up:" >&2
    cat "$log" >&2
    exit 1
fi

status=0
for name in \
    edgebol_core_periods_total \
    edgebol_core_sweep_seconds \
    edgebol_acq_variance_solves_total \
    edgebol_gp_observations_total \
    edgebol_gp_sweep_columns_total \
    edgebol_oran_requests_total \
    edgebol_oran_periods_total \
    edgebol_testbed_delay_seconds \
    edgebol_testbed_bs_power_watts; do
    if printf '%s\n' "$body" | grep -q "^$name\|^# TYPE $name"; then
        echo "ok: $name"
    else
        echo "MISSING: $name" >&2
        status=1
    fi
done
if [ "$status" -ne 0 ]; then
    printf '%s\n' "$body" >&2
fi
exit $status
