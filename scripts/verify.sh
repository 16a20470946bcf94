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

# Rustdoc gate: a doc link to a deleted, renamed or private item fails
# the build instead of rotting silently. --lib documents only the
# libraries: the `nptsn` library and the `nptsn` binary would otherwise
# collide on one output file.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --lib

# The bit-identity pins again, in the release profile the benchmark
# measures: the batched, threaded PPO update and the threaded re-plan
# against their sequential references, the analyzer, its episode memo of
# NBF outcomes and the lazy NBF against the textbook ones, the NBF
# contract that memo rests on (outcomes depend only on the present and
# live links), every shipped NBF's session (one per analysis, which
# reuses a flow's nominal path under every failure that spares it)
# against a fresh `recover` for each failure of a random sequence,
# and the memoized SOAG, keyed on its search graph, against the
# unmemoized generator. The release build is other machine code (no
# debug assertions, other inlining) and its threads interleave on other
# timings, so a pass in the dev profile alone does not show that the
# build the benchmark measures computes the same bits. Those root pins
# compare batched paths with sequential ones that share the matmul
# kernel, so a kernel that is wrong the same way on both sides passes
# them; `nptsn-tensor`'s own tests pin the kernel and the matmul
# gradients to textbook loops, and they run here too. The served
# inference batch runs in release as well: `batched_equivalence` pins it
# and the stacked training forward to solo GCN forwards at 0, 1, 2 and 4
# layers, `model::tests` pin its log-probs, batched and one item alone
# (the greedy re-plan step), to `evaluate` at 0 and 2 GCN layers, and
# `infer::tests` pin every lockstep lane's plan, which every coalesced
# served infer job returns, to `plan_with_policy`'s.
# `nptsn-sched` and `nptsn-topo` run whole: the bitset schedule table
# against a `Vec<bool>` model, the NBF against an eager one that shares
# neither the table nor the path search, Yen's iterator, restarted or
# fresh, against the eager Yen, and the link sweep (`path_links`): every
# path of every search carries, at each hop, the link `link_between`
# resolves. `nptsn-baselines` runs whole too: TRH schedules its replica
# paths through the same `schedule_flow_on_path`, from their links.
cargo test -q --offline --release --test ppo_reference --test analyzer_reference \
    --test nbf_contract --test nbf_session --test replan_reference --test soag_reference
cargo test -q --offline --release -p nptsn-sched -p nptsn-topo -p nptsn-baselines
cargo test -q --offline --release -p nptsn-tensor --lib
cargo test -q --offline --release -p nptsn-nn --test batched_equivalence
cargo test -q --offline --release -p nptsn --lib -- model::tests infer::tests

# The end-to-end benchmark is a package of its own: build and test it
# against the crates as they are. --locked fails if a crate change would
# force an edit to benchmark/Cargo.lock.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

# Smoke-run the benchmarks: exercises the cold and cached analyzer and
# the HTTP service end to end and checks the BENCH_*.json plumbing. This
# includes the seeded chaos storm (chaos_storm --seed 42), which fails on
# its own if a job is lost, anything hangs, a recovery path never fires,
# or disarmed fault-injection overhead reaches 10%.
scripts/bench.sh --smoke

# Chaos smoke gates, re-checked from the storm's ledger so a regression in
# the binary's own gating cannot pass silently. The ledger writes one
# top-level field per line, so each gate matches its field positively on
# its own line: a missing field or a changed layout fails loudly.
chaos_json="target/BENCH_chaos.smoke.json"
require() {
    grep -Eq "^  \"$1\": $2,?\$" "$chaos_json" || { echo "chaos smoke: $3" >&2; exit 1; }
}
# The storm replayed deterministically, and every recovery counter moved.
require determinism true "storm was not deterministic"
for counter in ppo_rollbacks deadline_kills client_retries; do
    require "$counter" '[1-9][0-9]*' "recovery counter $counter never moved"
done
# Router storm gates: the routed two-shard phase failed over, replayed the
# dead shard's log, and replayed byte-identically under the same seed.
require router_identical true "router storm was not deterministic"
for counter in router_failovers router_replayed; do
    require "$counter" '[1-9][0-9]*' "router storm counter $counter never moved"
done
# Membership storm gates (DESIGN.md §16): the RF2 fleet promoted replicas
# on the kill, the restarted shard rejoined and drained its share, and the
# whole storm replayed byte-identically under the same seed.
require membership_identical true "membership storm was not deterministic"
for counter in membership_rejoins membership_migrated membership_promotions; do
    require "$counter" '[1-9][0-9]*' "membership storm counter $counter never moved"
done
echo "chaos smoke: deterministic storm + live recovery counters confirmed"
