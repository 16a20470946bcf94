//! Crash-recovery edge cases for the segment log.
//!
//! Each scenario from the robustness checklist — torn tail write, bad-CRC
//! mid-log record, empty segment, compaction interrupted at the rename
//! site — must recover to a consistent prefix of the acknowledged writes
//! and leave the store fully usable. None may panic.
//!
//! An armed [`nptsn_chaos::FaultPlan`] is process-global, so every test
//! runs wholly under `arm_scoped` (with an empty plan when it injects no
//! fault): no test's writes run while a sibling's plan is armed.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use nptsn_chaos::{arm_scoped, FaultKind, FaultPlan, SiteRule};
use nptsn_store::{LogConfig, LogStore, Storage};

fn temp_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("nptsn-store-rec-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn segment0(dir: &Path) -> PathBuf {
    dir.join("segment-0000000000.log")
}

#[test]
fn torn_tail_is_truncated_to_last_good_record() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let dir = temp_dir("torn-tail");
    {
        let store = LogStore::open(&dir).unwrap();
        store.put("a", b"alpha").unwrap();
        store.put("b", b"beta").unwrap();
    }
    // A crash mid-append leaves a partial frame: a plausible length prefix
    // with only half the payload behind it.
    let mut file = OpenOptions::new().append(true).open(segment0(&dir)).unwrap();
    file.write_all(&[64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3]).unwrap();
    drop(file);
    let len_before = fs::metadata(segment0(&dir)).unwrap().len();

    let store = LogStore::open(&dir).unwrap();
    assert_eq!(store.get("a").unwrap(), Some(b"alpha".to_vec()));
    assert_eq!(store.get("b").unwrap(), Some(b"beta".to_vec()));
    let recovery = store.recovery();
    assert_eq!(recovery.torn_records_dropped, 1);
    assert_eq!(recovery.truncated_bytes, 11);
    assert!(fs::metadata(segment0(&dir)).unwrap().len() < len_before);

    // The next append reuses the cleaned boundary and survives a reopen.
    store.put("c", b"gamma").unwrap();
    drop(store);
    let reopened = LogStore::open(&dir).unwrap();
    assert_eq!(reopened.recovery().torn_records_dropped, 0);
    assert_eq!(reopened.get("c").unwrap(), Some(b"gamma".to_vec()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bad_crc_mid_log_cuts_replay_to_a_consistent_prefix() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let dir = temp_dir("bad-crc");
    let offsets: Vec<u64> = {
        let store = LogStore::open(&dir).unwrap();
        let mut offsets = Vec::new();
        for (key, value) in [("a", "alpha"), ("b", "beta"), ("c", "gamma")] {
            offsets.push(fs::metadata(segment0(&dir)).unwrap().len());
            store.put(key, value.as_bytes()).unwrap();
        }
        offsets
    };
    // Rot one payload byte of the middle record ("b"): its CRC no longer
    // matches, so replay must stop before it — "a" survives, "b" and the
    // records after it are gone (frame boundaries can no longer be
    // trusted), and the file is truncated at the damage.
    let mut bytes = fs::read(segment0(&dir)).unwrap();
    let b_payload = offsets[1] as usize + 8;
    bytes[b_payload + 7] ^= 0x40;
    fs::write(segment0(&dir), &bytes).unwrap();

    let store = LogStore::open(&dir).unwrap();
    assert_eq!(store.get("a").unwrap(), Some(b"alpha".to_vec()));
    assert_eq!(store.get("b").unwrap(), None);
    assert_eq!(store.get("c").unwrap(), None);
    assert_eq!(store.recovery().torn_records_dropped, 1);
    assert_eq!(fs::metadata(segment0(&dir)).unwrap().len(), offsets[1]);
    assert_eq!(store.stats().live_keys, 1);

    // The store keeps working past the repair.
    store.put("d", b"delta").unwrap();
    assert_eq!(store.get("d").unwrap(), Some(b"delta".to_vec()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_segment_is_valid_and_empty() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let dir = temp_dir("empty-segment");
    {
        let store = LogStore::open(&dir).unwrap();
        store.put("a", b"alpha").unwrap();
    }
    // A crash between segment creation and its header write leaves a
    // zero-length file; it must read as an empty segment, not corruption.
    fs::write(dir.join("segment-0000000001.log"), b"").unwrap();

    let store = LogStore::open(&dir).unwrap();
    assert_eq!(store.get("a").unwrap(), Some(b"alpha".to_vec()));
    assert_eq!(store.recovery().segments_scanned, 2);
    assert_eq!(store.recovery().torn_records_dropped, 0);
    // The zero-length file became the active segment; appends grow it from
    // a fresh header and survive a reopen.
    store.put("b", b"beta").unwrap();
    drop(store);
    let reopened = LogStore::open(&dir).unwrap();
    assert_eq!(reopened.get("a").unwrap(), Some(b"alpha".to_vec()));
    assert_eq!(reopened.get("b").unwrap(), Some(b"beta".to_vec()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_file_is_refused_not_destroyed() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let dir = temp_dir("foreign");
    {
        let store = LogStore::open(&dir).unwrap();
        store.put("a", b"alpha").unwrap();
    }
    fs::write(dir.join("segment-0000000001.log"), b"definitely not a segment").unwrap();
    let err = LogStore::open(&dir).unwrap_err();
    assert!(err.to_string().contains("magic"), "{err}");
    // The foreign bytes are untouched.
    assert_eq!(
        fs::read(dir.join("segment-0000000001.log")).unwrap(),
        b"definitely not a segment"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn compaction_interrupted_at_rename_leaves_old_segments_authoritative() {
    let _guard = arm_scoped(FaultPlan::new(0)); // the fault is armed below
    let dir = temp_dir("compact-rename");
    let store = LogStore::open_with(
        &dir,
        LogConfig { auto_compact_bytes: 0, ..LogConfig::default() },
    )
    .unwrap();
    for round in 0..5 {
        for i in 0..4 {
            store.put(&format!("k{i}"), format!("r{round}").as_bytes()).unwrap();
        }
    }
    store.delete("k3").unwrap();

    // The compacted image becomes durable but the rename — the commit
    // point — fails, as if the process died between fsync and rename.
    nptsn_chaos::arm(FaultPlan::new(7).with_rule(SiteRule::always(
        "store.compact.rename",
        FaultKind::Error,
    )));
    let err = store.compact().unwrap_err();
    nptsn_chaos::disarm();
    assert!(err.to_string().contains("chaos"), "{err}");

    // Nothing changed: old segments answer every read, the temp file is
    // gone, and a retry succeeds.
    assert_eq!(store.get("k0").unwrap(), Some(b"r4".to_vec()));
    assert_eq!(store.get("k3").unwrap(), None);
    assert!(store.stats().dead_bytes > 0);
    assert!(fs::read_dir(&dir)
        .unwrap()
        .all(|e| !e.unwrap().file_name().to_string_lossy().ends_with(".tmp")));
    let result = store.compact().unwrap();
    assert_eq!(result.records_kept, 3);

    // A reopen after the whole sequence sees the compacted state.
    drop(store);
    let reopened = LogStore::open(&dir).unwrap();
    assert_eq!(reopened.get("k0").unwrap(), Some(b"r4".to_vec()));
    assert_eq!(reopened.get("k3").unwrap(), None);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn abandoned_compaction_tmp_is_removed_on_open() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let dir = temp_dir("tmp-sweep");
    {
        let store = LogStore::open(&dir).unwrap();
        store.put("a", b"alpha").unwrap();
    }
    // A crash after writing the temp segment but before its rename leaves
    // a `.tmp` the replay must ignore and sweep.
    fs::write(dir.join("segment-0000000009.log.tmp"), b"half-written compaction").unwrap();
    let store = LogStore::open(&dir).unwrap();
    assert_eq!(store.recovery().tmp_files_removed, 1);
    assert_eq!(store.get("a").unwrap(), Some(b"alpha".to_vec()));
    assert!(!dir.join("segment-0000000009.log.tmp").exists());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn export_live_reads_without_mutating_the_directory() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let dir = temp_dir("export-readonly");
    {
        let store = LogStore::open(&dir).unwrap();
        store.put("a", b"alpha").unwrap();
        store.put("b", b"beta").unwrap();
        store.put("a", b"alpha-2").unwrap();
        store.delete("b").unwrap();
        store.put("c", b"gamma").unwrap();
    }
    // Simulate the owner dying mid-append (torn tail) and mid-compaction
    // (abandoned temp file). An *open* would repair both; the export must
    // read around them and leave every byte in place.
    let mut file = OpenOptions::new().append(true).open(segment0(&dir)).unwrap();
    file.write_all(&[64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 9, 9]).unwrap();
    drop(file);
    fs::write(dir.join("segment-0000000007.log.tmp"), b"abandoned").unwrap();
    let len_before = fs::metadata(segment0(&dir)).unwrap().len();

    let live = LogStore::export_live(&dir).unwrap();
    assert_eq!(
        live,
        vec![("a".to_string(), b"alpha-2".to_vec()), ("c".to_string(), b"gamma".to_vec())]
    );
    // Zero mutation: torn tail still present, tmp file still present.
    assert_eq!(fs::metadata(segment0(&dir)).unwrap().len(), len_before);
    assert!(dir.join("segment-0000000007.log.tmp").exists());

    // A later real open of the same directory still recovers normally.
    let store = LogStore::open(&dir).unwrap();
    assert_eq!(store.get("a").unwrap(), Some(b"alpha-2".to_vec()));
    assert_eq!(store.get("b").unwrap(), None);
    assert_eq!(store.recovery().tmp_files_removed, 1);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn export_live_spans_segments_and_respects_override_order() {
    let _guard = arm_scoped(FaultPlan::new(0)); // serialize only; no faults
    let dir = temp_dir("export-multiseg");
    {
        // Tiny segments force rotation so the export has to merge several
        // files in id order, later records overriding earlier ones.
        let store = LogStore::open_with(
            &dir,
            LogConfig { segment_bytes: 64, auto_compact_bytes: 0, ..LogConfig::default() },
        )
        .unwrap();
        for round in 0..6 {
            for i in 0..3 {
                store.put(&format!("k{i}"), format!("round-{round}").as_bytes()).unwrap();
            }
        }
        store.delete("k1").unwrap();
    }
    assert!(fs::read_dir(&dir).unwrap().count() > 1, "rotation never happened");
    let live = LogStore::export_live(&dir).unwrap();
    assert_eq!(
        live,
        vec![
            ("k0".to_string(), b"round-5".to_vec()),
            ("k2".to_string(), b"round-5".to_vec()),
        ]
    );
    // Export of a directory with no segments at all is empty, not an error.
    let empty = temp_dir("export-multiseg-empty");
    fs::create_dir_all(&empty).unwrap();
    assert!(LogStore::export_live(&empty).unwrap().is_empty());
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&empty);
}

#[test]
fn torn_append_fault_keeps_acknowledged_writes_consistent() {
    let _guard = arm_scoped(FaultPlan::new(0)); // the fault is armed below
    let dir = temp_dir("torn-append");
    let mut acknowledged = Vec::new();
    {
        let store = LogStore::open(&dir).unwrap();
        nptsn_chaos::arm(FaultPlan::new(11).with_rule(SiteRule {
            site: "store.append".to_string(),
            kind: FaultKind::Error,
            every: 3,
            rate: 0.0,
            max_count: 0,
        }));
        for i in 0..12 {
            let key = format!("k{i:02}");
            // An `error` fault tears the frame mid-write; the store rolls
            // the tail back and reports the failure, so the caller knows
            // the write was NOT acknowledged.
            if store.put(&key, key.as_bytes()).is_ok() {
                acknowledged.push(key);
            }
        }
        nptsn_chaos::disarm();
    }
    assert!(!acknowledged.is_empty() && acknowledged.len() < 12);

    // Recovery sees exactly the acknowledged set — no torn half-records
    // surface as values, no acknowledged write is missing.
    let store = LogStore::open(&dir).unwrap();
    assert_eq!(store.stats().live_keys, acknowledged.len() as u64);
    for key in &acknowledged {
        assert_eq!(store.get(key).unwrap(), Some(key.as_bytes().to_vec()), "{key}");
    }
    let _ = fs::remove_dir_all(&dir);
}
