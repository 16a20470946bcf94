//! Benchmarks for the durable job store (`nptsn-store`, DESIGN.md §12):
//! append throughput (synced and unsynced), recovery time as a function
//! of log size, and the compaction pause.
//!
//! Writes the `store` ledger (`BENCH_store.json`, see
//! `nptsn_bench::ledger`; a smoke run shrinks the workloads to a plumbing
//! check).

use std::hint::black_box;
use std::time::Instant;

use nptsn_bench::{temp_dir, write_ledger};
use nptsn_store::{LogConfig, LogStore, Storage};

/// A job-record-sized payload whose bytes depend on `i`, so identical
/// frames can't be optimized or deduplicated anywhere in the pipeline.
fn payload(i: u64) -> Vec<u8> {
    let mut bytes = vec![0u8; 256];
    for (j, b) in bytes.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(31).wrapping_add(j as u8);
    }
    bytes
}

/// Puts/second for `n` appends of distinct keys.
fn append_throughput(n: u64, sync_writes: bool) -> f64 {
    let dir = temp_dir(if sync_writes { "store-sync" } else { "store-nosync" });
    let config = LogConfig { sync_writes, ..LogConfig::default() };
    let store = LogStore::open_with(&dir, config).expect("open bench store");
    let started = Instant::now();
    for i in 0..n {
        store.put(&format!("job/{i:020}"), &payload(i)).expect("append");
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    n as f64 / elapsed
}

/// Time to reopen (replay + index rebuild) a log holding `records`
/// distinct keys. Returns (recovery seconds, records replayed).
fn recovery_time(records: u64) -> (f64, u64) {
    let dir = temp_dir("store-recover");
    {
        let config = LogConfig { sync_writes: false, ..LogConfig::default() };
        let store = LogStore::open_with(&dir, config).expect("open bench store");
        for i in 0..records {
            store.put(&format!("job/{i:020}"), &payload(i)).expect("append");
        }
    } // dropped without ceremony — recovery replays from disk alone
    let started = Instant::now();
    let store = LogStore::open(&dir).expect("recover");
    let elapsed = started.elapsed().as_secs_f64();
    let replayed = store.recovery().records_replayed;
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (elapsed, replayed)
}

/// Compaction pause after `overwrites` rewrites of `live` keys, i.e. a
/// log whose dead space is `overwrites` times its live set. Returns
/// (pause seconds, bytes reclaimed, live keys kept).
fn compaction_pause(live: u64, overwrites: u64) -> (f64, u64, u64) {
    let dir = temp_dir("store-compact");
    let config =
        LogConfig { sync_writes: false, auto_compact_bytes: 0, ..LogConfig::default() };
    let store = LogStore::open_with(&dir, config).expect("open bench store");
    for round in 0..=overwrites {
        for i in 0..live {
            store.put(&format!("job/{i:020}"), &payload(i ^ round)).expect("append");
        }
    }
    let started = Instant::now();
    let stats = store.compact().expect("compact");
    let pause = started.elapsed().as_secs_f64();
    let kept = black_box(store.stats().live_keys);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (pause, stats.bytes_reclaimed, kept)
}

fn main() {
    let smoke = nptsn_bench::smoke();
    let append_n: u64 = if smoke { 500 } else { 20_000 };
    let sync_n: u64 = if smoke { 50 } else { 1_000 };
    let recovery_sizes: &[u64] = if smoke { &[100, 1_000] } else { &[1_000, 10_000, 100_000] };
    let (live, overwrites) = if smoke { (200u64, 4u64) } else { (2_000, 9) };

    let unsynced = append_throughput(append_n, false);
    println!("store_bench: append (unsynced)  {unsynced:>12.0} puts/s  ({append_n} x 256 B)");
    let synced = append_throughput(sync_n, true);
    println!("store_bench: append (fsync'd)   {synced:>12.0} puts/s  ({sync_n} x 256 B)");

    let mut recovery_rows = Vec::new();
    for &records in recovery_sizes {
        let (secs, replayed) = recovery_time(records);
        assert_eq!(replayed, records, "recovery lost records");
        println!(
            "store_bench: recovery of {records:>7} records  {:>8.2} ms  \
             ({:.0} records/s)",
            secs * 1_000.0,
            replayed as f64 / secs.max(1e-9),
        );
        recovery_rows.push((records, secs));
    }

    let (pause, reclaimed, kept) = compaction_pause(live, overwrites);
    assert_eq!(kept, live, "compaction lost live keys");
    println!(
        "store_bench: compaction pause {:.2} ms  (kept {kept} keys, reclaimed {reclaimed} B)",
        pause * 1_000.0
    );

    write_ledger("store", "store_segment_log", |l| {
        l.int("value_bytes", 256)
            .num("append_unsynced_puts_per_sec", unsynced)
            .num("append_synced_puts_per_sec", synced)
            .objects("recovery", &recovery_rows, |o, &(records, secs)| {
                o.int("records", records)
                    .num("ms", secs * 1_000.0)
                    .num("records_per_sec", records as f64 / secs.max(1e-9));
            })
            .object("compaction", |o| {
                o.int("live_keys", live)
                    .int("overwrites", overwrites)
                    .num("pause_ms", pause * 1_000.0)
                    .int("bytes_reclaimed", reclaimed);
            });
    });
}
