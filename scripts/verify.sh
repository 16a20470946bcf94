#!/usr/bin/env bash
# Hermetic verification: build, test, and lint with no registry access.
# The workspace has zero external dependencies, so --offline must succeed
# even with an empty cargo registry cache.
#
# The real-process smoke tests of `nptsn serve` and `nptsn router` (kill -9
# recovery, failover, fleet traces, elastic membership) run inside the
# workspace test step: see `cargo test -p nptsn-cli --test smoke`.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace
cargo clippy --offline --workspace --all-targets -- -D warnings

# The end-to-end benchmark is a package of its own: build and test it
# against the crates as they are. --locked fails if a crate change would
# force an edit to benchmark/Cargo.lock.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

# Smoke-run the benchmarks: exercises the parallel + cached analyzer and
# the HTTP service end to end and checks the BENCH_*.json plumbing. This
# includes the seeded chaos storm (chaos_storm --seed 42), which fails on
# its own if a job is lost, anything hangs, a recovery path never fires,
# or disarmed fault-injection overhead reaches 10%.
scripts/bench.sh --smoke

# Chaos smoke gates, re-checked from the storm's JSON so a regression in
# the binary's own gating cannot pass silently: the storm replayed
# deterministically, and every recovery counter moved.
chaos_json="target/BENCH_chaos.smoke.json"
grep -q '"determinism": true' "$chaos_json" \
    || { echo "chaos smoke: storm was not deterministic" >&2; exit 1; }
for counter in ppo_rollbacks deadline_kills client_retries; do
    if grep -q "\"$counter\": 0," "$chaos_json"; then
        echo "chaos smoke: recovery counter $counter never moved" >&2
        exit 1
    fi
done
# Router storm gates: the routed two-shard phase failed over, replayed the
# dead shard's log, and replayed byte-identically under the same seed.
grep -q '"router_identical": true' "$chaos_json" \
    || { echo "chaos smoke: router storm was not deterministic" >&2; exit 1; }
for counter in router_failovers router_replayed; do
    if grep -q "\"$counter\": 0," "$chaos_json"; then
        echo "chaos smoke: router storm counter $counter never moved" >&2
        exit 1
    fi
done
# Membership storm gates (DESIGN.md §16): the RF2 fleet promoted replicas
# on the kill, the restarted shard rejoined and drained its share, and the
# whole storm replayed byte-identically under the same seed.
grep -q '"membership_identical": true' "$chaos_json" \
    || { echo "chaos smoke: membership storm was not deterministic" >&2; exit 1; }
for counter in membership_rejoins membership_migrated membership_promotions; do
    if grep -q "\"$counter\": 0," "$chaos_json"; then
        echo "chaos smoke: membership storm counter $counter never moved" >&2
        exit 1
    fi
done
echo "chaos smoke: deterministic storm + live recovery counters confirmed"
