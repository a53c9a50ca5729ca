//! End-to-end tests of the `ladm-trace` binary's input handling: a
//! hostile file handed to `--validate` must be rejected with a typed
//! error and exit 1, never a panic or an abort.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ladm-trace");

#[test]
fn validate_rejects_deep_nesting_without_crashing() {
    let dir = std::env::temp_dir().join(format!("ladm-trace-cli-{}-deep", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("deep.json");
    std::fs::write(&path, "[".repeat(200_000)).expect("write deep");
    let out = Command::new(BIN)
        .arg("--validate")
        .arg(&path)
        .output()
        .expect("ladm-trace runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("INVALID"), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}
