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

# Every temporary of the run lives in one fresh directory, so two runs
# never collide. The EXIT trap removes it, whichever stage fails, kills
# a daemon that a failed check left running (start_daemon below) and
# puts back tcorbench/Cargo.lock if the benchmark check left it
# rewritten (BENCH_LOCK below).
CI_TMP=$(mktemp -d -t tcor-ci.XXXXXX)
SERVE_PID=
BENCH_LOCK=
trap 'if [ -n "$SERVE_PID" ]; then kill "$SERVE_PID" 2>/dev/null || true; fi
if [ -n "$BENCH_LOCK" ]; then cp "$BENCH_LOCK" tcorbench/Cargo.lock; fi
rm -rf "$CI_TMP"' EXIT

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo test"
cargo test --workspace -q

echo "== cache kernels against their oracles, release profile"
# Every test above runs the debug profile, and rustc 1.95.0 miscompiles
# some inlined code at opt-level 2-3 only (EXPERIMENTS.md "Release-only
# abort in serve_plane"). The two kernels the simulator ships run their
# differential tests here as they ship: the L2 kernel under
# MemoryHierarchy against Cache<L2Policy> plus MainMemory, and
# LruFilter against Cache<Lru>.
cargo test --release -q -p tcor-mem --lib oracle::
cargo test --release -q -p tcor-cache --test reference_model

echo "== benchmark check (tcorbench builds against the workspace crates)"
# tcorbench/ is a workspace of its own that calls the crates' pub items
# through path dependencies, so a change to one of them must fail here
# rather than in a benchmark run. Cargo rewrites tcorbench/Cargo.lock on
# a fresh resolve, and the benchmark's files stay as committed: the lock
# is copied first and restored byte for byte, here or by the EXIT trap.
BENCH_LOCK=$CI_TMP/tcorbench-Cargo.lock
cp tcorbench/Cargo.lock "$BENCH_LOCK"
CARGO_TARGET_DIR=.bench_build cargo check --offline -q --manifest-path tcorbench/Cargo.toml
cp "$BENCH_LOCK" tcorbench/Cargo.lock
BENCH_LOCK=

echo "== golden check (headline)"
cargo run --release -q -p tcor-sim -- headline --check --telemetry "$CI_TMP/telemetry.jsonl" >/dev/null

TCOR_SIM=target/release/tcor-sim

echo "== golden check (all) + frame-plan counts, pool width and --serial"
# Every experiment must match its golden at the pool width and on one
# worker, and both runs must build the suite's 16 frame plans and replay
# its 144 frames on them (DESIGN.md "Frame plan"): a plan built twice or
# a frame that skips its shared plan changes the counts.
for serial in "" --serial; do
  # An empty $serial expands to no argument: the pool-width run.
  "$TCOR_SIM" all --check $serial --telemetry "$CI_TMP/telemetry.jsonl" \
    --manifest "$CI_TMP/run-manifest.txt" >/dev/null 2>"$CI_TMP/all.err"
  if ! grep -qx 'frame plans: 16 built, 144 replayed' "$CI_TMP/all.err"; then
    echo "ci: FAIL: all ${serial:-at pool width} did not build 16 plans and replay 144 frames" >&2
    grep 'frame plans' "$CI_TMP/all.err" >&2 || true
    exit 1
  fi
done
rm -f "$CI_TMP/all.err" "$CI_TMP/run-manifest.txt"

echo "== golden check (whole cell reports)"
# The CSV goldens round to three decimals or to percentages, so they can
# miss a one-count drift in a cell's counters. results/golden/cells.jsonl
# holds the full `tcor-sim cell` report of every Table II workload under
# every suite configuration (60 lines); the current binary must
# reproduce it byte for byte (README "Parallel runs, telemetry and
# golden results" says how to re-record it).
CELLS_OUT=$CI_TMP/cells.jsonl
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
CURVES_OUT=$CI_TMP/curves.jsonl
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

echo "== golden check (Chrome trace)"
# The --trace-out Chrome trace (one traced CCS frame under tcor64,
# 5,955 events) is part of the byte-identity contract. Its SHA-256 is
# pinned in results/golden/trace-ccs-tcor64.sha256 (README "Parallel
# runs, telemetry and golden results" says how to re-record it).
TRACE_OUT=$CI_TMP/trace.json
"$TCOR_SIM" --trace-out "$TRACE_OUT" 2>/dev/null
if [ "$(sha256sum "$TRACE_OUT" | cut -d' ' -f1)" != "$(cat results/golden/trace-ccs-tcor64.sha256)" ]; then
  echo "ci: FAIL: the Chrome trace differs from results/golden/trace-ccs-tcor64.sha256" >&2
  exit 1
fi
rm -f "$TRACE_OUT"

echo "== golden check (miss curves, single-pass engine)"
# The single-pass miss-curve engine (OPT stack profiling + per-geometry
# replays scattered across the workers, see DESIGN.md) must reproduce
# every miss-curve figure bit-for-bit against the goldens recorded
# under the per-capacity replay engine, both at the pool width and on
# one worker (--serial). Drift exits 4.
cargo run --release -q -p tcor-sim -- fig1 fig11 fig12 fig13 fig13x --check \
  --telemetry "$CI_TMP/telemetry.jsonl" >/dev/null
cargo run --release -q -p tcor-sim -- fig1 fig11 fig12 fig13 fig13x --check --serial \
  --telemetry "$CI_TMP/telemetry.jsonl" >/dev/null

echo "== miss-curve engine regression gate"
# Benchmarks the single-pass engine against the per-capacity replay on
# every miss-curve experiment and fails if any speedup drops below
# 1.00x or outputs drift (this is the gate that would have caught
# fig13x's 0.94x regression through the old interleaved capacity
# bank). Writes the per-experiment table to a scratch path; the
# committed BENCH_misscurves.json is refreshed intentionally via
# `bench-misscurves` without --gate.
cargo run --release -q -p tcor-sim -- bench-misscurves \
  "$CI_TMP/bench-misscurves.json" --gate >/dev/null

echo "== metric-conservation audit (clean, then injected counter fault)"
# The audit re-derives every headline counter from two independent
# counting sites over all 144 frames `all` replays: the suite cells and
# the ablation, sweep, scaling and traversal frames (see crates/obs).
# Each report's OPT self-check count is among them. A clean tree must
# balance exactly; a deliberately tampered counter copy must be caught
# and mapped to the corruption exit code (5).
cargo run --release -q -p tcor-sim -- headline --audit \
  --telemetry "$CI_TMP/telemetry.jsonl" >/dev/null 2>"$CI_TMP/audit.err"
if ! grep -qx 'audit: 144 frames checked, 0 violation(s)' "$CI_TMP/audit.err"; then
  echo "ci: FAIL: the audit did not check 144 frames clean" >&2
  grep 'audit' "$CI_TMP/audit.err" >&2 || true
  exit 1
fi
rm -f "$CI_TMP/audit.err"
set +e
cargo run --release -q -p tcor-sim -- --audit --inject-audit-fault \
  >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 5 ]; then
  echo "ci: FAIL: injected audit fault exited $code, expected 5 (corruption)" >&2
  exit 1
fi

echo "== fault-injection smoke (inject at pool width and --serial, then resume + golden check)"
# Seed 42 deterministically panics two cell jobs, cell:Snp/tcor_nol2_64
# and cell:TRu/tcor_nol2_128: the run must contain the failures (exit 3,
# the cell-failure code) while independent experiments complete, and
# the clean resumed run must re-execute only the missing experiments and
# still match the goldens bit-for-bit. The injector keys every ask on a
# job label, so the --serial run must fail the same jobs as the
# pool-width one.
SMOKE_MANIFEST=$CI_TMP/manifest.txt
failed_labels() {
  grep '"event":"job_failed"' "$1" | sed -n 's/.*"label":"\([^"]*\)".*/\1/p' | sort
}
for serial in "" --serial; do
  rm -f "$SMOKE_MANIFEST"
  set +e
  # An empty $serial expands to no argument: the pool-width run.
  cargo run --release -q -p tcor-sim -- all --inject-faults 42 $serial \
    --manifest "$SMOKE_MANIFEST" --telemetry "$CI_TMP/faults${serial}.jsonl" \
    >/dev/null 2>&1
  code=$?
  set -e
  if [ "$code" -ne 3 ]; then
    echo "ci: FAIL: injected-fault run ${serial:-at pool width} exited $code, expected 3 (cell failure)" >&2
    exit 1
  fi
done
failed_labels "$CI_TMP/faults.jsonl" >"$CI_TMP/failed.txt"
failed_labels "$CI_TMP/faults--serial.jsonl" >"$CI_TMP/failed-serial.txt"
if [ ! -s "$CI_TMP/failed.txt" ] || ! cmp -s "$CI_TMP/failed.txt" "$CI_TMP/failed-serial.txt"; then
  echo "ci: FAIL: seed 42 failed different jobs at pool width and --serial" >&2
  diff "$CI_TMP/failed.txt" "$CI_TMP/failed-serial.txt" >&2 || true
  exit 1
fi
cargo run --release -q -p tcor-sim -- all --resume --check \
  --manifest "$SMOKE_MANIFEST" --telemetry "$CI_TMP/telemetry.jsonl" \
  >/dev/null
rm -f "$SMOKE_MANIFEST"

# Daemon lifecycle for the serve, stream and restart smokes.
# `start_daemon NAME [FLAGS...]` starts `tcor-sim serve` on an ephemeral
# port with FLAGS, waits for its port file and sets ADDR; `stop_daemon`
# asks it to drain over POST /admin/shutdown and requires exit 0. The
# EXIT trap kills a daemon that a failed check left running.
PORT_FILE=$CI_TMP/serve-port
DAEMON=

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
# drain to exit 0 on POST /admin/shutdown. The POST spelling of the
# same experiment parses to the same call, so it must be a memory-tier
# hit on the GET's entry (X-Tcor-Cache: mem), not a second computation.
SERVE_OUT=$CI_TMP/serve-fig10.csv
start_daemon "serve daemon" --telemetry "$CI_TMP/serve-telemetry.jsonl"
"$TCOR_SIM" serve-req "$ADDR" GET /health >/dev/null
"$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 > "$SERVE_OUT"
if ! cmp -s "$SERVE_OUT" results/golden/fig10.csv; then
  echo "ci: FAIL: served fig10 differs from results/golden/fig10.csv" >&2
  exit 1
fi
if ! "$TCOR_SIM" serve-req "$ADDR" POST /v1/run experiment=fig10 --expect-cache mem \
    > "$SERVE_OUT"; then
  echo "ci: FAIL: POST /v1/run experiment=fig10 was not a memory hit on the GET's entry" >&2
  exit 1
fi
if ! cmp -s "$SERVE_OUT" results/golden/fig10.csv; then
  echo "ci: FAIL: POST /v1/run fig10 differs from results/golden/fig10.csv" >&2
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
STREAM_OUT=$CI_TMP/stream-gtr.json
OFFLINE_OUT=$CI_TMP/offline-gtr.json
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
BENCH_STREAM_OUT=$CI_TMP/bench-stream.json
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
# The daemon is the cache's one writer, so generation 1's cold fig10 is
# one disk put and no dedup touch.
CACHE_DIR=$CI_TMP/pcache
RESTART_OUT=$CI_TMP/restart-fig10.csv
rm -rf "$CACHE_DIR"
start_daemon "generation-1 daemon" --cache-dir "$CACHE_DIR" \
  --telemetry "$CI_TMP/serve-telemetry.jsonl"
"$TCOR_SIM" serve-req "$ADDR" GET /v1/table/fig10 --expect-cache miss > "$SERVE_OUT"
"$TCOR_SIM" serve-req "$ADDR" GET /metrics > "$CI_TMP/metrics.txt"
for want in 'pcache/puts = 1' 'pcache/dedup_puts = 0'; do
  if ! grep -qx "$want" "$CI_TMP/metrics.txt"; then
    echo "ci: FAIL: generation 1's cold fig10 did not leave $want" >&2
    grep '^pcache/.*puts' "$CI_TMP/metrics.txt" >&2 || true
    exit 1
  fi
done
stop_daemon
start_daemon "restarted daemon" --cache-dir "$CACHE_DIR" \
  --telemetry "$CI_TMP/serve-telemetry.jsonl"
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
rm -f "$SERVE_OUT" "$RESTART_OUT" "$CI_TMP/metrics.txt"

echo "== bench-load smoke (open-loop load: keep-alive tiers + graceful shedding)"
# A reduced run of the open-loop concurrent load generator: warm
# keep-alive tiers must answer byte-identically to the offline CLI, and
# a synchronized cold burst against a 1-worker / depth-2 daemon must
# shed the overflow with 429 + X-Tcor-Retry-After-Ms — never a 5xx,
# never a reset — then drain cleanly. The bench enforces all of that
# internally (nonzero exit on any violation); the greps additionally
# pin the written record.
BENCH_LOAD_OUT=$CI_TMP/bench-load.json
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

echo "== bench-serve (concurrent cold requests through the simulator backend)"
# The coalescing tests in serve_plane.rs run on a stub backend; this
# stage drives the real SimBackend: five cold targets, warm reads, an
# 8-client cold burst on /v1/misscurve/GTr/srrip, and a restart onto
# the disk tier. Each cold target computes once and the burst once
# more, whether its other clients follow the leader's flight or hit the
# body it cached, so serve/cold_computes reads 6. How many of them
# coalesce varies between runs and is not pinned. The record goes to a
# scratch path, never to the committed BENCH_serve.json.
BENCH_SERVE_OUT=$CI_TMP/bench-serve.json
"$TCOR_SIM" bench-serve "$BENCH_SERVE_OUT" 2>/dev/null
for want in '"cold_computes":6' '"warm_equals_cold":true' '"restart_equals_cold":true'; do
  if ! grep -q "$want" "$BENCH_SERVE_OUT"; then
    echo "ci: FAIL: bench-serve record is missing $want" >&2
    exit 1
  fi
done
rm -f "$BENCH_SERVE_OUT"

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
