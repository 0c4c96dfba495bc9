//! The daemon binary's argument checks: a bad value is a message and exit
//! code 1, never a panic.

use std::process::Command;

#[test]
fn a_zero_window_is_rejected_by_name() {
    let out = Command::new(env!("CARGO_BIN_EXE_meterstick-daemon"))
        .args(["--window", "0", "--rounds", "1"])
        .output()
        .expect("the daemon binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("--window"), "stderr: {stderr}");
}
