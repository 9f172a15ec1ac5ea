#!/usr/bin/env bash
# Tier-1 verification gate: release build, full test suite, the
# benchmark's own build and self-test, and a zero-warning clippy
# pass over every target (vendored stand-ins included).
#
# The workspace is fully hermetic — all external crates are vendored
# under vendor/ — so everything here runs with --offline.
#
# Usage: scripts/ci.sh
# Optional follow-up (not part of the gate; writes BENCH_kernels.json
# at the repo root):
#   cargo run --release --offline -p snn-bench --bin bench_kernels

set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace: the root manifest is also a package, and a bare
# `cargo build` would compile only it — the smoke test below needs the
# release `snn` binary to be current.
cargo build --workspace --release --offline
# Root-package integration suites (tier-1), plus the fast member-crate
# suites for the serving stack, the accelerator simulator, the JSON
# parser every snapshot and request body goes through, the bit-exactness
# suites of snn-quant, and the whole snn-tensor suite (lib unit tests,
# the qmat/event/pool exactness files, par_exactness and proptests:
# ~10 s with its build). The remaining member suites (data, dse, bench)
# are much slower — dse's training sweeps alone take ~35 min on one
# core — and are left to `cargo test --workspace` outside the gate.
cargo test -q --offline
cargo test -q --offline -p snn-core -p snn-serve -p snn-pool -p snn-cli -p snn-quant -p snn-accel -p serde_json
cargo test -q --offline -p snn-tensor
# The benchmark (`perfbench/`, its own cargo workspace) links the
# serving crates by path: build it and run its self-test so an API
# change that breaks the benchmark fails here.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cargo clippy --workspace --all-targets --offline -- -D warnings

# Serve smoke test: boot the model server (the epoll front end with
# its default single engine replica) on an ephemeral port, round trip
# /healthz and /infer, and require SIGTERM to drain it to exit 0.
# SNN_LOG and SNN_SLO are set so the trace smoke test below also
# covers the structured event log and the SLO burn-rate gauges.
serve_log="$(mktemp)"
events_log="$(mktemp)"
SNN_LOG="info:$events_log" SNN_SLO="p99=25ms,avail=99.9" \
  target/release/snn serve --demo 8 --addr 127.0.0.1:0 --timesteps 2 \
  >"$serve_log" 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$serve_log" "$events_log"' EXIT

addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^listening on //p' "$serve_log")"
  [ -n "$addr" ] && break
  kill -0 "$serve_pid" 2>/dev/null || { cat "$serve_log"; echo "ci.sh: serve exited early" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { cat "$serve_log"; echo "ci.sh: serve never reported its address" >&2; exit 1; }
grep -q '^pool: 1 ' "$serve_log" \
  || { cat "$serve_log"; echo "ci.sh: serve did not start a pool of one" >&2; exit 1; }

health="$(curl -sf --max-time 5 "http://$addr/healthz")" \
  || { cat "$serve_log"; echo "ci.sh: /healthz request failed" >&2; exit 1; }
case "$health" in
  *'"status":"ok"'*) ;;
  *) echo "ci.sh: unexpected /healthz response: $health" >&2; exit 1 ;;
esac

input="$(seq 64 | sed 's/.*/0.5/' | paste -sd,)"
infer="$(curl -sf --max-time 5 -X POST "http://$addr/infer" \
  -H 'Content-Type: application/json' -d "{\"input\":[$input]}")" \
  || { cat "$serve_log"; echo "ci.sh: /infer request failed" >&2; exit 1; }
case "$infer" in
  *'"class":'*'"layers":'*) ;;
  *) echo "ci.sh: unexpected /infer response: $infer" >&2; exit 1 ;;
esac

# Observability smoke test: scrape both metrics endpoints after real
# traffic and validate them structurally — a malformed Prometheus
# exposition or /metrics.json body fails the gate here, not at scrape
# time in production.
metrics_text="$(mktemp)"
metrics_json="$(mktemp)"
curl -sf --max-time 5 "http://$addr/metrics" >"$metrics_text"
curl -sf --max-time 5 "http://$addr/metrics.json" >"$metrics_json"
target/release/snn obs-check --text "$metrics_text" --json "$metrics_json" \
  || { echo "ci.sh: obs-check rejected the metrics endpoints" >&2; exit 1; }
grep -q '^# TYPE snn_serve_request_latency_seconds histogram$' "$metrics_text" \
  || { echo "ci.sh: /metrics lacks the request latency histogram" >&2; exit 1; }
grep -q '^# TYPE snn_slo_burn_rate_availability_5m gauge$' "$metrics_text" \
  || { echo "ci.sh: /metrics lacks the SLO burn-rate gauges" >&2; exit 1; }
grep -q '^snn_serve_layer_spikes_total{layer="conv1"} [0-9][0-9]*$' "$metrics_text" \
  || { echo "ci.sh: /metrics lacks the per-layer spike counters" >&2; exit 1; }
rm -f "$metrics_text" "$metrics_json"
echo "ci.sh: observability smoke test passed"

# Request-tracing smoke test: issue one more /infer, follow its
# x-snn-trace-id response header into /debug/traces, and require the
# recorded timeline to show real time in the queue (the lone request
# lingers the batcher's max_wait) and in the forward pass. The
# /debug/traces listing and the structured event log must both pass
# the obs-check validators.
headers="$(mktemp)"
trace_json="$(mktemp)"
traces_list="$(mktemp)"
curl -sf --max-time 5 -D "$headers" -X POST "http://$addr/infer" \
  -H 'Content-Type: application/json' -d "{\"input\":[$input]}" >/dev/null \
  || { cat "$serve_log"; echo "ci.sh: traced /infer request failed" >&2; exit 1; }
trace_id="$(tr -d '\r' <"$headers" | sed -n 's/^x-snn-trace-id: //p')"
[ -n "$trace_id" ] \
  || { cat "$headers"; echo "ci.sh: /infer answered without x-snn-trace-id" >&2; exit 1; }
curl -sf --max-time 5 "http://$addr/debug/traces/$trace_id" >"$trace_json" \
  || { echo "ci.sh: trace $trace_id not found in /debug/traces" >&2; exit 1; }
for stage in queue_wait forward; do
  us="$(sed -n "s/.*\"stage\":\"$stage\",\"micros\":\([0-9]*\).*/\1/p" "$trace_json")"
  [ -n "$us" ] && [ "$us" -gt 0 ] \
    || { cat "$trace_json"
         echo "ci.sh: trace $trace_id shows no time in stage $stage" >&2; exit 1; }
done
curl -sf --max-time 5 "http://$addr/debug/traces" >"$traces_list"
target/release/snn obs-check --traces "$traces_list" --log "$events_log" \
  || { echo "ci.sh: obs-check rejected the trace listing or event log" >&2; exit 1; }
rm -f "$headers" "$trace_json" "$traces_list"
echo "ci.sh: request-tracing smoke test passed ($trace_id)"

kill "$serve_pid"
serve_rc=0
wait "$serve_pid" || serve_rc=$?
[ "$serve_rc" -eq 0 ] \
  || { cat "$serve_log"; echo "ci.sh: serve exited with status $serve_rc on SIGTERM" >&2; exit 1; }
trap - EXIT
rm -f "$serve_log" "$events_log"
echo "ci.sh: serve smoke test passed ($addr)"

# Crash-resume smoke test: SIGKILL a checkpointed training run
# mid-epoch, resume it from the run store, and require the resumed
# snapshot to be byte-identical to an uninterrupted run. This is the
# real-process counterpart of the in-process kill tests in
# tests/checkpoint_resume.rs.
store_dir="$(mktemp -d)"
train_log="$(mktemp)"
trap 'rm -rf "$store_dir"; rm -f "$train_log"' EXIT

target/release/snn train --profile micro --epochs 3 \
  --out "$store_dir/ref.json" >/dev/null

target/release/snn train --profile micro --epochs 3 \
  --store "$store_dir/store" --run-id smoke --checkpoint-every 1 \
  --out "$store_dir/crashed.json" >"$train_log" 2>&1 &
train_pid=$!
for _ in $(seq 600); do
  [ -e "$store_dir/store/runs/smoke/ckpt-000001.json" ] && break
  kill -0 "$train_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$train_pid" 2>/dev/null; then
  kill -9 "$train_pid" 2>/dev/null || true
fi
wait "$train_pid" 2>/dev/null || true
[ -e "$store_dir/store/runs/smoke/ckpt-000001.json" ] \
  || { cat "$train_log"; echo "ci.sh: no checkpoint appeared before the kill" >&2; exit 1; }

target/release/snn train --profile micro --epochs 3 \
  --store "$store_dir/store" --run-id smoke --checkpoint-every 1 --resume \
  --out "$store_dir/resumed.json" >/dev/null
cmp -s "$store_dir/ref.json" "$store_dir/resumed.json" \
  || { echo "ci.sh: resumed snapshot differs from the uninterrupted run" >&2; exit 1; }
# grep reads the full stream (no -q): an early-exit grep would close
# the pipe mid-print and, under pipefail, fail the gate on the
# writer's SIGPIPE panic rather than on the actual check.
target/release/snn runs list --store "$store_dir/store" | grep '^smoke ' >/dev/null \
  || { echo "ci.sh: snn runs list does not show the smoke run" >&2; exit 1; }

rm -rf "$store_dir"
rm -f "$train_log"
trap - EXIT
echo "ci.sh: crash-resume smoke test passed"

# Chaos smoke test: run the fault-injection drill — supervised
# training must absorb an injected checkpoint-write failure
# (checkpoint → rollback → resume) and the model server must recover
# from an injected worker panic (typed 503, no hung requests, healthz
# back to ok) — and require both recoveries to be counted.
chaos_log="$(mktemp)"
trap 'rm -f "$chaos_log"' EXIT
target/release/snn chaos --plan io_err@store:0.05,panic@serve.worker:1 --seed 7 \
  >"$chaos_log" 2>&1 \
  || { cat "$chaos_log"; echo "ci.sh: chaos drill failed" >&2; exit 1; }
recoveries="$(sed -n 's/.*snn_recovery_total=\([0-9]*\).*/\1/p' "$chaos_log")"
[ -n "$recoveries" ] && [ "$recoveries" -gt 0 ] \
  || { cat "$chaos_log"; echo "ci.sh: chaos drill recorded no recoveries" >&2; exit 1; }
grep -q 'healthz=ok' "$chaos_log" \
  || { cat "$chaos_log"; echo "ci.sh: chaos drill did not end healthy" >&2; exit 1; }
grep -q 'rolled back to epoch' "$chaos_log" \
  || { cat "$chaos_log"; echo "ci.sh: chaos drill never exercised a training rollback" >&2; exit 1; }
rm -f "$chaos_log"
trap - EXIT
echo "ci.sh: chaos smoke test passed ($recoveries recoveries)"

# Quantized-inference smoke drill: train the micro model into the
# registry, quantize it to INT8 (requiring accuracy within 2 points of
# the f32 source), then serve the published INT8 artifact and require
# /infer to answer from the int8 engine end to end.
quant_dir="$(mktemp -d)"
quant_log="$(mktemp)"
qserve_pid=""
trap 'kill "$qserve_pid" 2>/dev/null || true; rm -rf "$quant_dir"; rm -f "$quant_log"' EXIT

target/release/snn train --profile micro --epochs 3 \
  --store "$quant_dir/store" --publish micro-f32 >/dev/null

target/release/snn quantize --store "$quant_dir/store" --model-name micro-f32 \
  --profile micro --publish micro-int8 >"$quant_log" 2>&1 \
  || { cat "$quant_log"; echo "ci.sh: snn quantize failed" >&2; exit 1; }
acc_line="$(sed -n 's/^accuracy //p' "$quant_log")"
[ -n "$acc_line" ] \
  || { cat "$quant_log"; echo "ci.sh: quantize printed no accuracy line" >&2; exit 1; }
echo "$acc_line" | awk '{
  f = ""; q = ""
  for (i = 1; i <= NF; i++) {
    if ($i ~ /^f32=/)  f = substr($i, 5)
    if ($i ~ /^int8=/) q = substr($i, 6)
  }
  if (f == "" || q == "") exit 1
  d = f - q; if (d < 0) d = -d
  exit !(d <= 0.02)
}' || { cat "$quant_log"
        echo "ci.sh: int8 accuracy strayed more than 2 points from f32 ($acc_line)" >&2
        exit 1; }

: >"$quant_log"
target/release/snn serve --store "$quant_dir/store" --model-name micro-int8 \
  --addr 127.0.0.1:0 --timesteps 2 >"$quant_log" 2>&1 &
qserve_pid=$!
addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^listening on //p' "$quant_log")"
  [ -n "$addr" ] && break
  kill -0 "$qserve_pid" 2>/dev/null \
    || { cat "$quant_log"; echo "ci.sh: int8 serve exited early" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] \
  || { cat "$quant_log"; echo "ci.sh: int8 serve never reported its address" >&2; exit 1; }
grep -q 'serving .*\[int8\]' "$quant_log" \
  || { cat "$quant_log"; echo "ci.sh: serve did not report the int8 dtype" >&2; exit 1; }

input="$(seq 64 | sed 's/.*/0.5/' | paste -sd,)"
infer="$(curl -sf --max-time 5 -X POST "http://$addr/infer" \
  -H 'Content-Type: application/json' -d "{\"input\":[$input]}")" \
  || { cat "$quant_log"; echo "ci.sh: /infer against the int8 artifact failed" >&2; exit 1; }
case "$infer" in
  *'"engine":"int8"'*) ;;
  *) echo "ci.sh: /infer did not run on the int8 engine: $infer" >&2; exit 1 ;;
esac

kill "$qserve_pid"
wait "$qserve_pid" 2>/dev/null || true
qserve_pid=""
rm -rf "$quant_dir"
rm -f "$quant_log"
trap - EXIT
echo "ci.sh: quantized-inference smoke drill passed ($acc_line)"

# Event-datapath bench smoke test: run the kernel benchmark on smoke
# shapes, validate the report structurally (schema version, provenance,
# density-sweep layout), and gate on the event-driven conv2d kernel
# beating the dense route by at least 1.5x at 90% input sparsity
# (serial) and the INT8 GEMM beating the f32 dense GEMM by at least
# 1.2x. The full-size canonical runs show >3x and ~1.5x respectively;
# the smoke gates are the regression alarm, not the headline.
bench_json="$(mktemp)"
trap 'rm -f "$bench_json"' EXIT
target/release/bench_kernels --smoke --out "$bench_json" >/dev/null \
  || { echo "ci.sh: bench_kernels --smoke failed" >&2; exit 1; }
target/release/snn obs-check --bench "$bench_json" \
  --min-conv-event-speedup 1.5 --min-int8-speedup 1.2 \
  || { echo "ci.sh: obs-check rejected the kernel bench report" >&2; exit 1; }
rm -f "$bench_json"
trap - EXIT
echo "ci.sh: event-datapath bench smoke test passed"

# The checked-in reports are what README and DESIGN quote: validate
# their structure (schema, provenance, section layout) so a hand edit
# or a stale generator cannot leave a malformed one behind. No
# thresholds here; the smoke run above carries the gates.
for report in BENCH_serve.json BENCH_kernels.json; do
  target/release/snn obs-check --bench "$report" \
    || { echo "ci.sh: obs-check rejected the checked-in $report" >&2; exit 1; }
done
echo "ci.sh: checked-in bench reports are well-formed"

# Scale-out serving smoke gate: boot the pooled front end (2 engine
# replicas behind the single-threaded epoll loop), require /healthz to
# report both replica breakers, drive a short open-loop burst at a rate
# far below capacity — zero 5xx and zero transport errors allowed, with
# an intentional bad-request fraction that must land as 400s, not
# errors — then run a capacity mini-sweep whose schema-v7 report
# obs-check must validate.
pool_log="$(mktemp)"
loadgen_json="$(mktemp)"
pool_pid=""
trap 'kill "$pool_pid" 2>/dev/null || true; rm -f "$pool_log" "$loadgen_json"' EXIT
target/release/snn serve --demo 8 --addr 127.0.0.1:0 --timesteps 2 --replicas 2 \
  >"$pool_log" 2>&1 &
pool_pid=$!
addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^listening on //p' "$pool_log")"
  [ -n "$addr" ] && break
  kill -0 "$pool_pid" 2>/dev/null \
    || { cat "$pool_log"; echo "ci.sh: pooled serve exited early" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] \
  || { cat "$pool_log"; echo "ci.sh: pooled serve never reported its address" >&2; exit 1; }
grep -q '^pool: 2 replicas' "$pool_log" \
  || { cat "$pool_log"; echo "ci.sh: serve --replicas 2 did not start the pool front end" >&2; exit 1; }

health="$(curl -sf --max-time 5 "http://$addr/healthz")" \
  || { cat "$pool_log"; echo "ci.sh: pooled /healthz request failed" >&2; exit 1; }
case "$health" in
  *'"status":"ok"'*'"replica":0'*'"replica":1'*) ;;
  *) echo "ci.sh: pooled /healthz lacks per-replica breakers: $health" >&2; exit 1 ;;
esac

burst="$(target/release/snn loadgen --addr "$addr" --rps 40 --duration-ms 1500 \
  --warmup-ms 300 --connections 2 --bad-fraction 0.1)" \
  || { cat "$pool_log"; echo "ci.sh: loadgen burst failed" >&2; exit 1; }
echo "$burst" | grep -q ' 5xx=0 ' \
  || { echo "$burst"; echo "ci.sh: loadgen saw 5xx at sub-capacity load" >&2; exit 1; }
echo "$burst" | grep -q ' transport=0 ' \
  || { echo "$burst"; echo "ci.sh: loadgen saw transport errors at sub-capacity load" >&2; exit 1; }
echo "$burst" | grep -q ' 400s=0 ' \
  && { echo "$burst"; echo "ci.sh: the bad-request mix produced no 400s" >&2; exit 1; }

target/release/snn loadgen --addr "$addr" --sweep 30,60 --duration-ms 800 \
  --warmup-ms 200 --connections 2 --out "$loadgen_json" >/dev/null \
  || { cat "$pool_log"; echo "ci.sh: loadgen capacity sweep failed" >&2; exit 1; }
target/release/snn obs-check --bench "$loadgen_json" \
  || { echo "ci.sh: obs-check rejected the loadgen capacity report" >&2; exit 1; }

pool_metrics="$(curl -sf --max-time 5 "http://$addr/metrics")" \
  || { cat "$pool_log"; echo "ci.sh: pooled /metrics request failed" >&2; exit 1; }
for series in 'snn_pool_replica_queue_depth{replica="0"}' \
              'snn_pool_replica_queue_depth{replica="1"}' \
              'snn_pool_router_p2c_total'; do
  case "$pool_metrics" in
    *"$series"*) ;;
    *) echo "ci.sh: pooled /metrics lacks $series" >&2; exit 1 ;;
  esac
done

kill "$pool_pid"
wait "$pool_pid" 2>/dev/null || true
pool_pid=""
rm -f "$pool_log" "$loadgen_json"
trap - EXIT
echo "ci.sh: scale-out serving smoke gate passed ($addr)"

# Self-healing chaos gate: boot the pool with a hair-trigger breaker
# (one trip quarantines) and an injected worker panic on the third
# replica batch, then drive a sub-capacity burst through it. The
# supervisor must quarantine the poisoned replica, rebuild it from the
# registry, probe it, and re-admit it — all while the burst sees zero
# transport errors and at most a handful of 5xx (the client retry
# budget absorbs the panicked batch). obs-check must find the
# admission and quarantine series in both expositions, and a SIGTERM
# must drain the front end to a clean exit 0.
heal_log="$(mktemp)"
heal_text="$(mktemp)"
heal_json="$(mktemp)"
heal_pid=""
trap 'kill "$heal_pid" 2>/dev/null || true; rm -f "$heal_log" "$heal_text" "$heal_json"' EXIT
SNN_FAULTS="panic@serve.worker:3" \
  target/release/snn serve --demo 8 --addr 127.0.0.1:0 --timesteps 2 --replicas 2 \
  --breaker-threshold 1 --quarantine-trips 1 --drain-ms 3000 >"$heal_log" 2>&1 &
heal_pid=$!
addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^listening on //p' "$heal_log")"
  [ -n "$addr" ] && break
  kill -0 "$heal_pid" 2>/dev/null \
    || { cat "$heal_log"; echo "ci.sh: chaos pool exited early" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] \
  || { cat "$heal_log"; echo "ci.sh: chaos pool never reported its address" >&2; exit 1; }

burst="$(target/release/snn loadgen --addr "$addr" --rps 60 --duration-ms 2000 \
  --warmup-ms 200 --connections 2)" \
  || { cat "$heal_log"; echo "ci.sh: chaos burst failed" >&2; exit 1; }
echo "$burst" | grep -q ' transport=0 ' \
  || { echo "$burst"; echo "ci.sh: chaos burst saw transport errors" >&2; exit 1; }
fives="$(echo "$burst" | sed -n 's/.* 5xx=\([0-9][0-9]*\) .*/\1/p')"
[ -n "$fives" ] && [ "$fives" -le 5 ] \
  || { echo "$burst"; echo "ci.sh: chaos burst saw unbounded 5xx ($fives)" >&2; exit 1; }

# Readmission takes a probe cycle after the breaker cooldown, so poll.
quarantined=""
readmitted=""
for _ in $(seq 100); do
  metrics="$(curl -sf --max-time 5 "http://$addr/metrics")" || metrics=""
  quarantined="$(printf '%s\n' "$metrics" | sed -n 's/^snn_pool_quarantine_total \([0-9][0-9]*\).*/\1/p')"
  readmitted="$(printf '%s\n' "$metrics" | sed -n 's/^snn_pool_quarantine_readmitted_total \([0-9][0-9]*\).*/\1/p')"
  [ -n "$readmitted" ] && [ "$readmitted" -ge 1 ] && break
  sleep 0.1
done
[ -n "$quarantined" ] && [ "$quarantined" -ge 1 ] \
  || { cat "$heal_log"; echo "ci.sh: the poisoned replica was never quarantined" >&2; exit 1; }
[ -n "$readmitted" ] && [ "$readmitted" -ge 1 ] \
  || { cat "$heal_log"; echo "ci.sh: the quarantined replica was never re-admitted" >&2; exit 1; }

curl -sf --max-time 5 "http://$addr/metrics" >"$heal_text"
curl -sf --max-time 5 "http://$addr/metrics.json" >"$heal_json"
target/release/snn obs-check --text "$heal_text" --json "$heal_json" \
  --require snn_serve_admit,snn_pool_quarantine \
  || { echo "ci.sh: obs-check missed the admission/quarantine series" >&2; exit 1; }

kill -TERM "$heal_pid"
drain_rc=0
wait "$heal_pid" || drain_rc=$?
heal_pid=""
[ "$drain_rc" -eq 0 ] \
  || { cat "$heal_log"; echo "ci.sh: SIGTERM drain exited with status $drain_rc" >&2; exit 1; }

rm -f "$heal_log" "$heal_text" "$heal_json"
trap - EXIT
echo "ci.sh: self-healing chaos gate passed (quarantined=$quarantined readmitted=$readmitted 5xx=$fives)"

# Brownout degradation gate: serve the micro f32 model with a
# published INT8 brownout artifact and a 1s hold, seed an SLO
# availability fast burn with expired-deadline requests (504s), and
# require the serving engine to flip to int8 — with /healthz staying
# 200 but reporting degraded_mode=brownout — then flip back to f32
# once successes dilute the burn and the hold elapses.
bo_dir="$(mktemp -d)"
bo_log="$(mktemp)"
bo_pid=""
trap 'kill "$bo_pid" 2>/dev/null || true; rm -rf "$bo_dir"; rm -f "$bo_log"' EXIT
target/release/snn train --profile micro --epochs 3 --out "$bo_dir/f32.json" >/dev/null
target/release/snn quantize --model "$bo_dir/f32.json" --profile micro \
  --out "$bo_dir/int8.json" >/dev/null \
  || { echo "ci.sh: quantize for the brownout artifact failed" >&2; exit 1; }
SNN_SLO="avail=99" SNN_BROWNOUT_HOLD_MS=1000 \
  target/release/snn serve --model "$bo_dir/f32.json" --brownout-model "$bo_dir/int8.json" \
  --addr 127.0.0.1:0 --timesteps 2 >"$bo_log" 2>&1 &
bo_pid=$!
addr=""
for _ in $(seq 50); do
  addr="$(sed -n 's/^listening on //p' "$bo_log")"
  [ -n "$addr" ] && break
  kill -0 "$bo_pid" 2>/dev/null \
    || { cat "$bo_log"; echo "ci.sh: brownout serve exited early" >&2; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] \
  || { cat "$bo_log"; echo "ci.sh: brownout serve never reported its address" >&2; exit 1; }
grep -q '^brownout artifact:' "$bo_log" \
  || { cat "$bo_log"; echo "ci.sh: serve did not report the brownout artifact" >&2; exit 1; }

input="$(seq 64 | sed 's/.*/0.5/' | paste -sd,)"
infer="$(curl -sf --max-time 5 -X POST "http://$addr/infer" \
  -H 'Content-Type: application/json' -d "{\"input\":[$input]}")" \
  || { cat "$bo_log"; echo "ci.sh: healthy /infer failed" >&2; exit 1; }
case "$infer" in
  *'"engine":"f32"'*) ;;
  *) echo "ci.sh: healthy serving not on the f32 engine: $infer" >&2; exit 1 ;;
esac

# Seed the fast burn: expired deadlines land as 504s against avail=99.
for _ in $(seq 15); do
  curl -s --max-time 5 -X POST "http://$addr/infer" \
    -H 'Content-Type: application/json' \
    -d "{\"input\":[$input],\"timeout_ms\":0}" >/dev/null || true
done
engine=""
for _ in $(seq 50); do
  infer="$(curl -sf --max-time 5 -X POST "http://$addr/infer" \
    -H 'Content-Type: application/json' -d "{\"input\":[$input]}")" || infer=""
  case "$infer" in
    *'"engine":"int8"'*) engine=int8; break ;;
  esac
  sleep 0.1
done
[ "$engine" = int8 ] \
  || { cat "$bo_log"; echo "ci.sh: fast burn never flipped serving to int8" >&2; exit 1; }
health="$(curl -sf --max-time 5 "http://$addr/healthz")" \
  || { cat "$bo_log"; echo "ci.sh: /healthz failed during brownout" >&2; exit 1; }
case "$health" in
  *'"degraded_mode":"brownout"'*) ;;
  *) echo "ci.sh: /healthz does not report brownout: $health" >&2; exit 1 ;;
esac

# Dilute the burn with successes, then wait out the 1s hold.
for _ in $(seq 200); do
  curl -sf --max-time 5 -X POST "http://$addr/infer" \
    -H 'Content-Type: application/json' -d "{\"input\":[$input]}" >/dev/null || true
done
engine=""
for _ in $(seq 100); do
  infer="$(curl -sf --max-time 5 -X POST "http://$addr/infer" \
    -H 'Content-Type: application/json' -d "{\"input\":[$input]}")" || infer=""
  case "$infer" in
    *'"engine":"f32"'*) engine=f32; break ;;
  esac
  sleep 0.1
done
[ "$engine" = f32 ] \
  || { cat "$bo_log"; echo "ci.sh: serving never recovered to f32 after the burn cleared" >&2; exit 1; }

kill "$bo_pid" 2>/dev/null || true
wait "$bo_pid" 2>/dev/null || true
bo_pid=""
rm -rf "$bo_dir"
rm -f "$bo_log"
trap - EXIT
echo "ci.sh: brownout degradation gate passed ($addr)"

echo "ci.sh: all gates passed"
