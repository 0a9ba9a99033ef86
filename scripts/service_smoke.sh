#!/usr/bin/env bash
# End-to-end smoke test of the serving layer: start `repro serve` on an
# ephemeral port, push a `repro loadgen` workload through the HTTP API
# (gated on zero errors and zero degraded answers), and check that the
# metrics snapshot comes back as valid JSON with zero errors.  CI runs
# this on every push; it is also handy locally:
#
#   PYTHONPATH=src scripts/service_smoke.sh
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="${PYTHONPATH:-$REPO_ROOT/src}"

WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    if [[ -n "$SERVER_PID" ]] && kill -0 "$SERVER_PID" 2>/dev/null; then
        kill "$SERVER_PID" 2>/dev/null || true
        wait "$SERVER_PID" 2>/dev/null || true
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

GRAPH="$WORKDIR/graph.txt"
LOG="$WORKDIR/serve.log"
METRICS="$WORKDIR/metrics.json"

echo "== generating test graph"
python -m repro generate --dataset nethept --nodes 300 --seed 42 \
    --output "$GRAPH"

echo "== starting repro serve on an ephemeral port"
python -m repro serve --graph "$GRAPH" --port 0 --workers 4 \
    >"$LOG" 2>&1 &
SERVER_PID=$!

# Readiness: the server prints "serving ... on http://HOST:PORT" once
# the socket is bound.
URL=""
for _ in $(seq 1 50); do
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "server died during startup:" >&2
        cat "$LOG" >&2
        exit 1
    fi
    URL="$(sed -n 's/.* on \(http:\/\/[^ ]*\).*/\1/p' "$LOG" | head -n 1)"
    [[ -n "$URL" ]] && break
    sleep 0.2
done
if [[ -z "$URL" ]]; then
    echo "server did not become ready:" >&2
    cat "$LOG" >&2
    exit 1
fi
echo "== server ready at $URL"

echo "== running the load generator (no errors or degraded answers allowed)"
python -m repro loadgen --url "$URL" --profile read_heavy --duration 4 \
    --target-qps 15 --seed 7 --gate-error-rate 0 --gate-degraded-rate 0

echo "== fetching the metrics snapshot"
python - "$URL/metrics" "$METRICS" <<'EOF'
import sys
from urllib.request import urlopen

with urlopen(sys.argv[1], timeout=30) as response, \
        open(sys.argv[2], "wb") as handle:
    handle.write(response.read())
EOF

echo "== validating metrics snapshot"
python - "$METRICS" <<'EOF'
import json, sys

with open(sys.argv[1], "r", encoding="utf-8") as handle:
    snapshot = json.load(handle)
counters = snapshot["counters"]
assert counters["service.completed"] >= 50, counters
assert counters.get("service.errors", 0) == 0, counters
assert "service.latency_seconds" in snapshot["histograms"]
assert "result_cache" in snapshot["service"]
print("metrics snapshot OK:",
      f"{counters['service.completed']} completed,",
      f"{counters.get('service.shed', 0)} shed")
EOF

echo "== service smoke test passed"
