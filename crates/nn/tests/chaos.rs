//! Chaos-driven checkpoint fault tests.
//!
//! These live in their own test binary (not the unit-test module) because an
//! armed [`nptsn_chaos::FaultPlan`] is process-global: cargo runs test
//! binaries one at a time, so plans armed here can never leak into the
//! checkpoint unit tests. Within this binary every test runs wholly under
//! `arm_scoped` (with an empty plan until it arms its own), so no test's
//! clean save or load runs while a sibling's plan is armed.

use std::path::{Path, PathBuf};

use nptsn_chaos::{arm_scoped, FaultKind, FaultPlan, SiteRule};
use nptsn_nn::{params_from_bytes, params_to_bytes, read_checkpoint, write_checkpoint, CheckpointError};
use nptsn_tensor::Tensor;

fn temp_path(test: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nptsn-chaos-{}-{test}.bin", std::process::id()))
}

fn save(p: &Tensor, path: &Path) -> std::io::Result<()> {
    write_checkpoint(path, &params_to_bytes(std::slice::from_ref(p)))
}

#[test]
fn corrupt_save_is_caught_by_the_crc_on_load() {
    let path = temp_path("corrupt-save");
    let p = Tensor::param(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
    let _guard = arm_scoped(
        FaultPlan::new(42).with_rule(SiteRule::always("checkpoint.save", FaultKind::Corrupt)),
    );
    // The save itself "succeeds" — the corruption is silent, exactly like
    // a flipped bit on the way to disk.
    save(&p, &path).expect("corrupt save still writes");
    nptsn_chaos::disarm();
    let target = Tensor::param(2, 2, vec![0.0; 4]);
    // Depending on where the deterministic flip lands, validation reports it
    // structurally (header fields) or via the CRC trailer (payload) — either
    // way the corruption must be detected, never silently restored.
    let bytes = read_checkpoint(&path).expect("the file reads");
    assert!(
        params_from_bytes(std::slice::from_ref(&target), &bytes).is_err(),
        "expected the flipped bit to be detected"
    );
    assert_eq!(target.to_vec(), vec![0.0; 4], "target untouched on corrupt load");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn torn_save_keeps_the_previous_checkpoint_and_cleans_the_temp() {
    let _guard = arm_scoped(FaultPlan::new(0)); // no faults for the clean save
    let path = temp_path("torn-save");
    let p = Tensor::param(1, 2, vec![5.0, 6.0]);
    save(&p, &path).expect("clean save");
    let before = std::fs::read(&path).expect("checkpoint exists");

    let q = Tensor::param(1, 2, vec![7.0, 8.0]);
    nptsn_chaos::arm(
        FaultPlan::new(1).with_rule(SiteRule::always("checkpoint.save", FaultKind::Error)),
    );
    match save(&q, &path) {
        Err(e) => assert!(e.to_string().contains("checkpoint.save"), "unexpected error: {e}"),
        Ok(()) => panic!("expected injected i/o failure"),
    }
    nptsn_chaos::disarm();
    // The destination still holds the previous complete checkpoint, and the
    // torn temp file was cleaned up.
    assert_eq!(std::fs::read(&path).expect("still present"), before);
    let dir = path.parent().expect("temp dir");
    let leftover: Vec<_> = std::fs::read_dir(dir)
        .expect("readable dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.contains("torn-save") && n.contains(".tmp."))
        .collect();
    assert!(leftover.is_empty(), "temp files left behind: {leftover:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_load_is_caught_even_when_the_file_is_intact() {
    let _guard = arm_scoped(FaultPlan::new(0)); // no faults for the clean save
    let path = temp_path("corrupt-load");
    let p = Tensor::param(1, 2, vec![5.0, 6.0]);
    save(&p, &path).expect("clean save");
    nptsn_chaos::arm(
        FaultPlan::new(9).with_rule(SiteRule::always("checkpoint.load", FaultKind::Corrupt)),
    );
    let target = Tensor::param(1, 2, vec![0.0; 2]);
    let bytes = read_checkpoint(&path).expect("a corrupt rule still reads");
    match params_from_bytes(std::slice::from_ref(&target), &bytes) {
        Err(CheckpointError::BadChecksum { .. }) => {}
        other => panic!("expected checksum failure, got {other:?}"),
    }
    assert_eq!(target.to_vec(), vec![0.0; 2], "target untouched");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn injected_read_error_surfaces_as_io() {
    let _guard = arm_scoped(FaultPlan::new(0)); // no faults for the clean save
    let path = temp_path("read-error");
    let p = Tensor::param(1, 1, vec![1.0]);
    save(&p, &path).expect("clean save");
    nptsn_chaos::arm(
        FaultPlan::new(2).with_rule(SiteRule::always("checkpoint.load", FaultKind::Error)),
    );
    match read_checkpoint(&path) {
        Err(e) => assert!(e.to_string().contains("checkpoint.load"), "unexpected error: {e}"),
        Ok(_) => panic!("expected injected i/o failure"),
    }
    let _ = std::fs::remove_file(&path);
}
