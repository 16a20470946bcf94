//! Helpers shared by this crate's integration tests.

use nptsn_obs::json::{self, Value};

/// The integer at top-level `key` of a JSON response body.
///
/// # Panics
///
/// Panics when the body is not JSON or holds no number at `key`.
pub fn int_field(body: &str, key: &str) -> u64 {
    let doc = json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    doc.get(key).and_then(Value::as_num).unwrap_or_else(|| panic!("no {key} in {body}")) as u64
}
