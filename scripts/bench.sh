#!/usr/bin/env bash
# Benchmarks: builds the ledger binaries offline in release mode and runs
# each one. Every binary writes its ledger through `nptsn_bench::Ledger`
# (DESIGN.md §17): BENCH_<name>.json at the repository root, stamped with
# its benchmark label, the smoke flag and the core count.
#
#   BENCH_analyzer.json   — median ns/scenario of a cold analysis plus the
#                           shared-cache hit rate and speedup on a warm
#                           re-run (micro analyzer_json)
#   BENCH_serve.json      — HTTP request throughput and p50/p99 status-poll
#                           latency of the nptsn-serve service
#   BENCH_obs.json        — tracing overhead on a re-plan workload, the
#                           flight recorder's record/snapshot cost and the
#                           armed-tracing overhead on a routed round (fails
#                           if disabled or armed routed overhead >= 5%)
#   BENCH_chaos.json      — the seeded chaos storm: determinism, clean vs
#                           storm throughput, p99 recovery latency, the
#                           recovery counters, the kill-and-restart, router
#                           and membership storms (fails if disarmed
#                           overhead >= 10%, a recovery path never fired,
#                           a job was lost or two same-seed storms diverge)
#   BENCH_store.json      — store append throughput (synced, unsynced),
#                           recovery time vs log size, compaction pause
#   BENCH_infer.json      — inference micro-batching at batch 1/8/64 (fails
#                           if the fused forward is not bit-identical, a
#                           batched result differs from solo, or batch-64
#                           throughput is below 4x batch-1)
#   BENCH_router.json     — routed vs direct submit-to-drain throughput
#                           of the median of 9 alternating pairs, each on
#                           fresh fleets (fails if its routed overhead
#                           exceeds 25%)
#   BENCH_membership.json — rejoin catch-up and kill-to-served failover
#                           p50/p99 at replication factor 1 vs 2 (fails if
#                           the RF2 p99 reaches 50 ms or an acked job is
#                           lost)
#
# A full run first compares each ledger with the committed one it
# replaces: when the core counts match, it prints every number that moved
# by more than 10%, by its path. Percentiles are nearest-rank.
#
# Usage: scripts/bench.sh [--smoke]
#   --smoke   shrink iteration counts to a fast plumbing check (used by
#             scripts/verify.sh); the ledgers go to
#             target/BENCH_<name>.smoke.json and compare nothing
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    export NPTSN_BENCH_SMOKE=1
fi

# Each binary with its arguments. The chaos storm is seeded: the same seed
# replays the same storm, so a failure reproduces from the ledger's "seed".
# The router and membership benches spawn their shard fleets as child
# processes of themselves.
benches=(
    "micro analyzer_json"
    "serve_bench"
    "obs_bench"
    "chaos_storm --seed 42"
    "store_bench"
    "infer_bench"
    "router_bench"
    "membership_bench"
)

cargo build --release --offline -p nptsn-bench $(printf -- '--bin %s ' "${benches[@]%% *}")
for bench in "${benches[@]}"; do
    # Word splitting is wanted: the binary name, then its arguments.
    # shellcheck disable=SC2086
    ./target/release/$bench
done
