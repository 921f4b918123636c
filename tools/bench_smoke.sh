#!/usr/bin/env bash
# Smoke-runs the kernel microbenchmarks for one short iteration and checks
# that they still emit valid google-benchmark JSON. No timing assertions —
# this guards "the kernels run and the perf-trajectory artifact stays
# machine-readable", not any particular number. Wired up as the `bench_smoke`
# ctest test (tier1 label) and as a stage of tools/check_static.sh.
#
# With a third argument — the pregelix CLI binary — it additionally
# smoke-tests the observability server: `pregelix serve` on an ephemeral
# port, then /healthz and /metrics must answer 200 (DESIGN.md §15).
#
# With a fourth and fifth argument — the bench_ab binary and its JSON output
# path — it also runs the A/B bench in --fast mode (small graphs, same
# deterministic cost model), gated by tools/check_bench_ab.py (plan
# optimizer, DESIGN.md §17; time ledger, DESIGN.md §20).
#
# usage: bench_smoke.sh <bench_micro_dataflow binary> <output json> \
#            [pregelix-cli] [bench_ab binary] [ab json]

set -u

if [ "$#" -lt 2 ] || [ "$#" -gt 5 ]; then
  echo "usage: $0 <bench-binary> <out.json> [pregelix-cli]" \
       "[bench-ab] [ab.json]" >&2
  exit 2
fi
BIN="$1"
OUT="$2"
CLI="${3:-}"
AB_BIN="${4:-}"
AB_OUT="${5:-}"

# A tiny min_time runs each benchmark for a single iteration batch. (The
# pinned google-benchmark predates the `--benchmark_min_time=1x` syntax.)
"$BIN" --benchmark_min_time=0.001 \
       --benchmark_out="$OUT" --benchmark_out_format=json > /dev/null || {
  echo "bench_smoke: $BIN failed" >&2
  exit 1
}

python3 - "$OUT" <<'EOF' || exit 1
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
benches = doc.get("benchmarks", [])
if not benches:
    sys.exit("bench_smoke: no benchmarks in JSON output")
for b in benches:
    if "name" not in b or "real_time" not in b:
        sys.exit(f"bench_smoke: malformed benchmark entry: {b}")
print(f"bench_smoke: OK ({len(benches)} benchmarks, valid JSON)")
EOF

# --- Optional: A/B bench smoke ----------------------------------------------
if [ -n "$AB_BIN" ] && [ -n "$AB_OUT" ]; then
  "$AB_BIN" --fast "$AB_OUT" > /dev/null || {
    echo "bench_smoke: $AB_BIN failed" >&2
    exit 1
  }
  python3 "$(dirname "$0")/check_bench_ab.py" "$AB_OUT" || exit 1
fi

# --- Optional: observability-server smoke -----------------------------------
if [ -z "$CLI" ]; then
  exit 0
fi
if ! command -v curl >/dev/null 2>&1; then
  echo "bench_smoke: no curl on PATH, skipping server smoke"
  exit 0
fi

SERVE_LOG="$(mktemp)"
"$CLI" serve --admin-port=0 --serve-seconds=20 > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
cleanup() {
  kill "$SERVE_PID" 2>/dev/null
  wait "$SERVE_PID" 2>/dev/null
  rm -f "$SERVE_LOG"
}
trap cleanup EXIT

# The CLI prints "admin server listening on 127.0.0.1:<port>" once bound.
PORT=""
for _ in $(seq 1 50); do
  PORT="$(sed -n 's/.*admin server listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
          "$SERVE_LOG" | head -n 1)"
  [ -n "$PORT" ] && break
  sleep 0.1
done
if [ -z "$PORT" ]; then
  echo "bench_smoke: pregelix serve never reported its port" >&2
  cat "$SERVE_LOG" >&2
  exit 1
fi

for path in /healthz /metrics; do
  CODE="$(curl -s -o /dev/null -w '%{http_code}' \
          "http://127.0.0.1:$PORT$path")"
  if [ "$CODE" != "200" ]; then
    echo "bench_smoke: GET $path returned $CODE (want 200)" >&2
    exit 1
  fi
done
echo "bench_smoke: OK (server answered /healthz and /metrics on :$PORT)"
