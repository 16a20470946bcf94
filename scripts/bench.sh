#!/usr/bin/env bash
# Benchmarks: builds the bench binaries offline in release mode and writes
# machine-readable results to the repository root:
#
#   BENCH_analyzer.json — median ns/scenario of a cold analysis plus the
#                         shared-cache hit rate and speedup on a warm
#                         re-run
#   BENCH_serve.json    — HTTP request throughput and p50/p99 status-poll
#                         latency of the nptsn-serve service
#   BENCH_obs.json      — nptsn-obs tracing overhead on the analyzer
#                         workload, recording disabled and enabled, plus
#                         the flight-recorder record/snapshot cost and the
#                         armed-tracing overhead on a routed two-shard
#                         submit-to-drain round (the binary itself fails
#                         if disabled overhead >= 5% or armed routed
#                         overhead >= 5%)
#   BENCH_chaos.json    — seeded chaos-storm results: determinism check,
#                         clean vs storm job throughput, p99 recovery
#                         latency, recovery counters, the durable-queue
#                         kill-and-restart storm, and the routed two-shard
#                         storm with a mid-work kill -9 (the binary fails
#                         if disarmed chaos overhead >= 10%, a recovery
#                         path never fired, any job was lost, any routed
#                         acked job was lost, or two same-seed storms
#                         diverge)
#   BENCH_store.json    — durable store microbenchmarks: append throughput
#                         (synced and unsynced), recovery time vs log
#                         size, and the compaction pause
#   BENCH_infer.json    — inference micro-batching: per-job p50/p99 latency
#                         and jobs/s of the full infer pipeline at batch
#                         1/8/64, fused-forward latency on ORION-scale
#                         observations, and the lane-vectorized matmul
#                         kernel speedup (the binary itself fails if the
#                         fused forward is not bit-identical to solo, a
#                         batched job result differs from its solo
#                         reference, or batch-64 throughput is below 4x
#                         batch-1)
#   BENCH_router.json   — sharded front tier: submit-to-drain throughput
#                         routed over a two-shard fleet vs direct to a
#                         single shard (the binary itself fails if routed
#                         overhead exceeds 25%)
#   BENCH_membership.json — elastic membership (DESIGN.md §16): the
#                         rejoin catch-up round trip of a restarted
#                         shard, and kill-to-served failover p50/p99 at
#                         replication factor 1 (dead-log replay: the
#                         fleet's one failover number) vs 2 (replica
#                         promotion; the binary itself fails if the RF2
#                         p99 reaches 50 ms or any acked job is lost)
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   shrink iteration counts to a fast plumbing check (used by
#             scripts/verify.sh; numbers are NOT representative)
set -euo pipefail
cd "$(dirname "$0")/.."

analyzer_out="BENCH_analyzer.json"
serve_out="BENCH_serve.json"
obs_out="BENCH_obs.json"
chaos_out="BENCH_chaos.json"
store_out="BENCH_store.json"
infer_out="BENCH_infer.json"
router_out="BENCH_router.json"
membership_out="BENCH_membership.json"
if [[ "${1:-}" == "--smoke" ]]; then
    export NPTSN_BENCH_SMOKE=1
    # Smoke numbers are not representative; keep them out of the committed
    # BENCH_*.json files.
    analyzer_out="target/BENCH_analyzer.smoke.json"
    serve_out="target/BENCH_serve.smoke.json"
    obs_out="target/BENCH_obs.smoke.json"
    chaos_out="target/BENCH_chaos.smoke.json"
    store_out="target/BENCH_store.smoke.json"
    infer_out="target/BENCH_infer.smoke.json"
    router_out="target/BENCH_router.smoke.json"
    membership_out="target/BENCH_membership.smoke.json"
fi

cargo build --release --offline -p nptsn-bench \
    --bin micro --bin serve_bench --bin obs_bench --bin chaos_storm --bin store_bench \
    --bin infer_bench --bin router_bench --bin membership_bench
NPTSN_BENCH_OUT="${NPTSN_BENCH_OUT:-$analyzer_out}" ./target/release/micro analyzer_json
NPTSN_BENCH_OUT="${NPTSN_SERVE_BENCH_OUT:-$serve_out}" ./target/release/serve_bench
NPTSN_BENCH_OUT="${NPTSN_OBS_BENCH_OUT:-$obs_out}" ./target/release/obs_bench
# The chaos storm is seeded: the same seed replays the same storm, so a
# reported failure reproduces exactly from the BENCH_chaos.json "seed".
NPTSN_BENCH_OUT="${NPTSN_CHAOS_BENCH_OUT:-$chaos_out}" ./target/release/chaos_storm --seed 42
NPTSN_BENCH_OUT="${NPTSN_STORE_BENCH_OUT:-$store_out}" ./target/release/store_bench
NPTSN_BENCH_OUT="${NPTSN_INFER_BENCH_OUT:-$infer_out}" ./target/release/infer_bench
# The router bench spawns its shard fleet as child processes of itself
# and gates routed overhead <=25%.
NPTSN_BENCH_OUT="${NPTSN_ROUTER_BENCH_OUT:-$router_out}" ./target/release/router_bench
# The membership bench spawns its fleets the same way and gates the
# pause-free-failover promise: RF2 kill-to-served p99 under 50 ms.
NPTSN_BENCH_OUT="${NPTSN_MEMBERSHIP_BENCH_OUT:-$membership_out}" ./target/release/membership_bench
