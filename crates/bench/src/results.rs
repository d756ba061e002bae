//! Shared result persistence for the experiment binaries.
//!
//! Every bin used to hand-roll its own `results/*.json` write; this
//! module gives them one envelope and one atomic writer. The envelope
//! carries a schema tag plus the two facts a reader needs to reproduce
//! the file — which bin wrote it and under which seed — with the payload
//! under `data`:
//!
//! ```json
//! {
//!   "schema": "stsl-results/v1",
//!   "bin": "table1",
//!   "seed": 42,
//!   "data": { ... }
//! }
//! ```
//!
//! The envelope names no thread count: every file but `parallel.json`
//! (timings) is byte-identical at any `STSL_THREADS`, and
//! `parallel.json`'s payload records the threads it asked for and got.
//!
//! Files are written to a temporary sibling and renamed into place, so a
//! crashed run never leaves a truncated JSON file where a good one stood.

use crate::results_dir;
use serde::Serialize;
use std::path::Path;

/// Schema tag stamped into every results envelope.
pub const RESULTS_SCHEMA: &str = "stsl-results/v1";

/// Serializes `data` inside the versioned envelope into
/// `results/<name>.json` (atomically). `bin` is the writing binary's
/// name, `seed` its run seed.
pub fn write_results<T: Serialize>(name: &str, bin: &str, seed: u64, data: &T) {
    let payload = serde_json::to_string_pretty(data).expect("serialize result");
    write_results_json(name, bin, seed, &payload);
}

/// Like [`write_results`] but takes the payload as pre-rendered JSON, for
/// a payload rendered by hand (the telemetry report's).
pub fn write_results_json(name: &str, bin: &str, seed: u64, data_json: &str) {
    persist(name, &envelope(bin, seed, data_json));
}

/// Renders the envelope around an already-serialized payload. The
/// envelope is assembled textually because the payload type is generic
/// and the key order must be fixed.
fn envelope(bin: &str, seed: u64, payload: &str) -> String {
    // Re-indent the payload so nested objects stay readable.
    let indented = payload.replace('\n', "\n  ");
    format!(
        "{{\n  \"schema\": \"{}\",\n  \"bin\": \"{}\",\n  \"seed\": {},\n  \"data\": {}\n}}\n",
        RESULTS_SCHEMA, bin, seed, indented
    )
}

/// Writes `json` to `results/<name>.json` via a temp file and rename.
fn persist(name: &str, json: &str) {
    let dir = results_dir();
    let final_path = dir.join(format!("{}.json", name));
    let tmp_path = dir.join(format!("{}.json.tmp", name));
    write_atomic(&tmp_path, &final_path, json).expect("write result file");
    println!("\nwrote {}", final_path.display());
}

fn write_atomic(tmp: &Path, dst: &Path, contents: &str) -> std::io::Result<()> {
    std::fs::write(tmp, contents)?;
    std::fs::rename(tmp, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Serialize, Value};

    #[derive(Serialize)]
    struct Payload {
        rows: Vec<u64>,
    }

    fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
        match v {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field {name}")),
            other => panic!("expected object, got {other:?}"),
        }
    }

    #[test]
    fn envelope_has_schema_header_and_nested_data() {
        let json = envelope("demo", 7, "{\n  \"rows\": [1]\n}");
        assert_eq!(
            json,
            "{\n  \"schema\": \"stsl-results/v1\",\n  \"bin\": \"demo\",\n  \
             \"seed\": 7,\n  \"data\": {\n    \"rows\": [1]\n  }\n}\n"
        );
        let v = serde_json::parse_value_str(&json).expect("valid json");
        assert_eq!(field(&v, "schema"), &Value::Str(RESULTS_SCHEMA.into()));
        assert_eq!(field(&v, "seed"), &Value::U64(7));
    }

    #[test]
    fn write_results_lands_atomically_in_results_dir() {
        let tmp = std::env::temp_dir().join("stsl-results-test");
        std::fs::create_dir_all(&tmp).unwrap();
        // results_dir() honors STSL_RESULTS; the test process is
        // single-threaded per test binary invocation of this module.
        std::env::set_var("STSL_RESULTS", &tmp);
        write_results("envelope_smoke", "test-bin", 3, &Payload { rows: vec![9] });
        std::env::remove_var("STSL_RESULTS");
        let path = tmp.join("envelope_smoke.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!tmp.join("envelope_smoke.json.tmp").exists());
        let v = serde_json::parse_value_str(&text).unwrap();
        assert_eq!(field(&v, "bin"), &Value::Str("test-bin".into()));
        match field(field(&v, "data"), "rows") {
            Value::Array(items) => assert_eq!(items, &[Value::U64(9)]),
            other => panic!("expected array, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }
}
