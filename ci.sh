#!/usr/bin/env bash
# Tier-1 gate. Fully offline: no registry access, no network.
#
#   ./ci.sh            format + lint + build + test + golden check
#
# The golden check regenerates the abstract's headline numbers through
# the parallel runner and compares them bit-for-bit against
# results/golden/ (see README "Parallel runs, telemetry and golden
# results"). Re-record intentional changes with
#   cargo run --release -p tcor-sim -- all --update-golden
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo test"
cargo test --workspace -q

echo "== golden check (headline)"
cargo run --release -q -p tcor-sim -- headline --check --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null

TCOR_SIM=target/release/tcor-sim

echo "== golden check (whole cell reports)"
# The CSV goldens round to three decimals or to percentages, so they can
# miss a one-count drift in a cell's counters. results/golden/cells.jsonl
# holds the full `tcor-sim cell` report of every Table II workload under
# every suite configuration (60 lines); the current binary must
# reproduce it byte for byte (README "Parallel runs, telemetry and
# golden results" says how to re-record it).
CELLS_OUT=/tmp/tcor-ci-cells.jsonl
for workload in CCS SoD SWa TRu CRa RoK DDS Snp Mze GTr; do
  for config in base64 tcor_nol2_64 tcor64 base128 tcor_nol2_128 tcor128; do
    "$TCOR_SIM" cell "$workload" "$config"
  done
done > "$CELLS_OUT"
if ! cmp -s "$CELLS_OUT" results/golden/cells.jsonl; then
  echo "ci: FAIL: cell reports differ from results/golden/cells.jsonl" >&2
  exit 1
fi
rm -f "$CELLS_OUT"

echo "== golden check (serving miss curves)"
# No figure golden pins a fully associative replay: fig12's `full`
# column comes from the stack profilers, and fig13/fig13x are 4-way.
# results/golden/curves.jsonl holds the `tcor-sim curve` body (the
# /v1/misscurve answer, a fully associative replay for 11 of the 14
# policies) of every Table II workload under every serving policy
# (140 lines); the current binary must reproduce it byte for byte
# (README "Parallel runs, telemetry and golden results" says how to
# re-record it).
CURVES_OUT=/tmp/tcor-ci-curves.jsonl
for workload in CCS SoD SWa TRu CRa RoK DDS Snp Mze GTr; do
  for policy in lru mru fifo random plru nru lip bip dip srrip brrip drrip opt hawkeye; do
    "$TCOR_SIM" curve "$workload" "$policy"
  done
done > "$CURVES_OUT"
if ! cmp -s "$CURVES_OUT" results/golden/curves.jsonl; then
  echo "ci: FAIL: serving miss curves differ from results/golden/curves.jsonl" >&2
  exit 1
fi
rm -f "$CURVES_OUT"

echo "== golden check (miss curves, single-pass engine)"
# The single-pass miss-curve engine (OPT stack profiling + per-geometry
# replays scattered across the workers, see DESIGN.md) must reproduce
# every miss-curve figure bit-for-bit against the goldens recorded
# under the per-capacity replay engine, both at the pool width and on
# one worker (--serial). Drift exits 4.
cargo run --release -q -p tcor-sim -- fig1 fig11 fig12 fig13 fig13x --check \
  --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null
cargo run --release -q -p tcor-sim -- fig1 fig11 fig12 fig13 fig13x --check --serial \
  --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null

echo "== miss-curve engine regression gate"
# Benchmarks the single-pass engine against the per-capacity replay on
# every miss-curve experiment and fails if any speedup drops below
# 1.00x or outputs drift (this is the gate that would have caught
# fig13x's 0.94x regression through the old interleaved capacity
# bank). Writes the per-experiment table to a scratch path; the
# committed BENCH_misscurves.json is refreshed intentionally via
# `bench-misscurves` without --gate.
cargo run --release -q -p tcor-sim -- bench-misscurves \
  /tmp/tcor-ci-bench-misscurves.json --gate >/dev/null

echo "== metric-conservation audit (clean, then injected counter fault)"
# The audit re-derives every headline counter from two independent
# counting sites over all 60 suite cells (see crates/obs). A clean tree
# must balance exactly; a deliberately tampered counter copy must be
# caught and mapped to the corruption exit code (5).
cargo run --release -q -p tcor-sim -- headline --audit \
  --telemetry /tmp/tcor-ci-telemetry.jsonl >/dev/null
set +e
cargo run --release -q -p tcor-sim -- --audit --inject-audit-fault \
  >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 5 ]; then
  echo "ci: FAIL: injected audit fault exited $code, expected 5 (corruption)" >&2
  exit 1
fi

echo "== fault-injection smoke (inject, then resume + golden check)"
# Seed 42 deterministically panics one scene job: the run must contain
# the failure (exit 3, the cell-failure code) while independent
# experiments complete, and the clean resumed run must re-execute only
# the missing experiments and still match the goldens bit-for-bit.
SMOKE_MANIFEST=/tmp/tcor-ci-manifest.txt
rm -f "$SMOKE_MANIFEST"
set +e
cargo run --release -q -p tcor-sim -- all --inject-faults 42 \
  --manifest "$SMOKE_MANIFEST" --telemetry /tmp/tcor-ci-telemetry.jsonl \
  >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 3 ]; then
  echo "ci: FAIL: injected-fault run exited $code, expected 3 (cell failure)" >&2
  exit 1
fi
cargo run --release -q -p tcor-sim -- all --resume --check \
  --manifest "$SMOKE_MANIFEST" --telemetry /tmp/tcor-ci-telemetry.jsonl \
  >/dev/null
rm -f "$SMOKE_MANIFEST"

# Daemon lifecycle for the serve, stream and restart smokes.
# `start_daemon NAME [FLAGS...]` starts `tcor-sim serve` on an ephemeral
# port with FLAGS, waits for its port file and sets ADDR; `stop_daemon`
# asks it to drain over POST /admin/shutdown and requires exit 0. The
# EXIT trap kills a daemon that a failed check left running.
PORT_FILE=/tmp/tcor-ci-serve-port
SERVE_PID=
DAEMON=
trap 'if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi' EXIT

start_daemon() {
  DAEMON=$1
  shift
  rm -f "$PORT_FILE"
  "$TCOR_SIM" serve --port 0 --workers 2 --queue-depth 16 --port-file "$PORT_FILE" \
    "$@" >/dev/null 2>&1 &
  SERVE_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    sleep 0.1
  done
  if [ ! -s "$PORT_FILE" ]; then
    echo "ci: FAIL: $DAEMON never published its port" >&2
    exit 1
  fi
  ADDR=$(cat "$PORT_FILE")
}

stop_daemon() {
  "$TCOR_SIM" serve-req "$ADDR" POST /admin/shutdown >/dev/null
  set +e
  wait "$SERVE_PID"
  code=$?
  set -e
  SERVE_PID=
  if [ "$code" -ne 0 ]; then
    echo "ci: FAIL: $DAEMON exited $code after graceful shutdown, expected 0" >&2
    exit 1
  fi
  rm -f "$PORT_FILE"
}

echo "== serve smoke (daemon up, golden table over loopback, graceful exit)"
# The serving daemon must come up on an ephemeral port, answer a golden
# experiment over loopback byte-identically to results/golden/, and
# drain to exit 0 on POST /admin/shutdown.
SERVE_OUT=/tmp/tcor-ci-serve-fig10.csv
start_daemon "serve daemon" --telemetry /tmp/tcor-ci-serve-telemetry.jsonl
"$TCOR_SIM" serve-req "$ADDR" GET /health >/dev/null
"$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 > "$SERVE_OUT"
if ! cmp -s "$SERVE_OUT" results/golden/fig10.csv; then
  echo "ci: FAIL: served fig10 differs from results/golden/fig10.csv" >&2
  exit 1
fi
stop_daemon
rm -f "$SERVE_OUT"

echo "== stream smoke (chunked upload byte-identical to offline misscurves + 413 cap)"
# The streaming profile plane must answer a chunked GTr upload with
# finish curves byte-identical to the offline /v1/misscurve plane for
# both policies (streamed ≡ whole-trace, proved with cmp), refuse an
# over-limit chunk body with 413 from the head alone, and count the
# rejection in serve/body_rejected.
STREAM_OUT=/tmp/tcor-ci-stream-gtr.json
OFFLINE_OUT=/tmp/tcor-ci-offline-gtr.json
start_daemon "stream-smoke daemon"
for policy in opt lru; do
  if ! "$TCOR_SIM" stream "$ADDR" --workload GTr --policy "$policy" \
      --chunk-accesses 1000 > "$STREAM_OUT" 2>/dev/null; then
    echo "ci: FAIL: chunked stream upload (policy $policy) failed" >&2
    exit 1
  fi
  "$TCOR_SIM" serve-req "$ADDR" GET "/v1/misscurve/GTr/$policy" > "$OFFLINE_OUT"
  if ! cmp -s "$STREAM_OUT" "$OFFLINE_OUT"; then
    echo "ci: FAIL: streamed GTr/$policy curve differs from the offline misscurve bytes" >&2
    exit 1
  fi
done
if ! "$TCOR_SIM" stream "$ADDR" --probe-oversize 2>/dev/null; then
  echo "ci: FAIL: oversize chunk body was not refused with 413" >&2
  exit 1
fi
if ! "$TCOR_SIM" serve-req "$ADDR" GET /metrics | grep -q 'serve/body_rejected = 1'; then
  echo "ci: FAIL: the 413 rejection did not land in serve/body_rejected" >&2
  exit 1
fi
stop_daemon
rm -f "$STREAM_OUT" "$OFFLINE_OUT"

echo "== bench-stream smoke (streaming ingest + live snapshots, offline byte parity)"
# The in-process streaming benchmark asserts the finished curve is
# byte-identical to a whole-trace profiler run of the same synthetic
# trace, takes live snapshots mid-ingest, and records the profiler's
# window high-water against the session budgets.
BENCH_STREAM_OUT=/tmp/tcor-ci-bench-stream.json
rm -f "$BENCH_STREAM_OUT"
"$TCOR_SIM" bench-stream "$BENCH_STREAM_OUT" --smoke 2>/dev/null
for want in '"byte_identical_vs_offline":true' '"smoke":true'; do
  if ! grep -q "$want" "$BENCH_STREAM_OUT"; then
    echo "ci: FAIL: bench-stream record is missing $want" >&2
    exit 1
  fi
done
if grep -q '"snapshots":0' "$BENCH_STREAM_OUT"; then
  echo "ci: FAIL: bench-stream took no live snapshots" >&2
  exit 1
fi
rm -f "$BENCH_STREAM_OUT"

echo "== restart-warm smoke (persistent cache survives a daemon restart)"
# Two daemon generations over one --cache-dir. Generation 1 computes a
# golden table into the persistent cache and dies; generation 2 must
# answer the same request from the DISK tier (X-Tcor-Cache: disk,
# asserted by serve-req --expect-cache) byte-identically to both
# generation 1's body and results/golden/ — a result computed before a
# crash is never recomputed, and never silently different, after it.
CACHE_DIR=/tmp/tcor-ci-pcache
RESTART_OUT=/tmp/tcor-ci-restart-fig10.csv
rm -rf "$CACHE_DIR"
start_daemon "generation-1 daemon" --cache-dir "$CACHE_DIR" \
  --telemetry /tmp/tcor-ci-serve-telemetry.jsonl
"$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 --expect-cache miss > "$SERVE_OUT"
stop_daemon
start_daemon "restarted daemon" --cache-dir "$CACHE_DIR" \
  --telemetry /tmp/tcor-ci-serve-telemetry.jsonl
if ! "$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 --expect-cache disk > "$RESTART_OUT"; then
  echo "ci: FAIL: restarted daemon did not answer fig10 from the disk tier" >&2
  exit 1
fi
if ! cmp -s "$RESTART_OUT" results/golden/fig10.csv; then
  echo "ci: FAIL: disk-tier fig10 differs from results/golden/fig10.csv" >&2
  exit 1
fi
if ! cmp -s "$RESTART_OUT" "$SERVE_OUT"; then
  echo "ci: FAIL: disk-tier fig10 differs from generation 1's body" >&2
  exit 1
fi
stop_daemon
rm -rf "$CACHE_DIR"
rm -f "$SERVE_OUT" "$RESTART_OUT"

echo "== bench-load smoke (open-loop load: keep-alive tiers + graceful shedding)"
# A reduced run of the open-loop concurrent load generator: warm
# keep-alive tiers must answer byte-identically to the offline CLI, and
# a synchronized cold burst against a 1-worker / depth-2 daemon must
# shed the overflow with 429 + X-Tcor-Retry-After-Ms — never a 5xx,
# never a reset — then drain cleanly. The bench enforces all of that
# internally (nonzero exit on any violation); the greps additionally
# pin the written record.
BENCH_LOAD_OUT=/tmp/tcor-ci-bench-load.json
rm -f "$BENCH_LOAD_OUT"
"$TCOR_SIM" bench-load "$BENCH_LOAD_OUT" --smoke 2>/dev/null
for want in '"server_5xx":0' '"transport_errors":0' '"clean_drain":true'; do
  if ! grep -q "$want" "$BENCH_LOAD_OUT"; then
    echo "ci: FAIL: bench-load record is missing $want" >&2
    exit 1
  fi
done
if grep -q '"shed":0' "$BENCH_LOAD_OUT"; then
  echo "ci: FAIL: the overload burst shed nothing" >&2
  exit 1
fi
rm -f "$BENCH_LOAD_OUT"

echo "== chaos (disk-fault schedule: breaker must open, probe, and close)"
# A seeded disk-fault schedule (every read and write errors until its
# budget runs out) against a cache-cap-1 daemon: the circuit breaker
# must trip open, half-open probe while the faults last, and close once
# the budget is exhausted — while every answered body stays
# byte-identical and the daemon drains to exit 0.
"$TCOR_SIM" chaos --seed 7 --rounds 3 --cache-cap 1 \
  --fault-spec 'pcache/read=100#6,pcache/write=100#4' \
  --breaker-threshold 3 --breaker-cooldown-ms 250 \
  --expect-breaker --retries 4 --backoff-ms 40 2>/dev/null

echo "== chaos (kill/restart + serve faults: retried to byte-identical bodies)"
# SIGKILL the daemon every 3 answered requests while the serve plane
# drops connections mid-body, corrupts responses (caught by the
# X-Tcor-Body-Hash check), and stalls reads. The retrying client must
# still get byte-identical bodies for every request, and the final
# generation must drain to exit 0. Writes BENCH_chaos.json.
"$TCOR_SIM" chaos --seed 1337 --rounds 6 --kill-every 3 \
  --fault-spec 'serve/drop_conn=45@30,serve/corrupt_response=35,serve/stall_read=25@60' \
  --retries 6 --backoff-ms 40 --bench-out BENCH_chaos.json 2>/dev/null

echo "ci: all green"
