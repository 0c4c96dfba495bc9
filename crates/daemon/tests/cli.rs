//! The daemon binary's argument checks: a bad value is a message and exit
//! code 1, never a panic.

use std::process::Command;

#[test]
fn bad_arguments_exit_1_and_name_what_is_wrong() {
    // (arguments, what stderr must name: the flag or the campaign dimension)
    let cases: [(&[&str], &str); 3] = [
        (&["--window", "0", "--rounds", "1"], "--window"),
        (
            &["--iterations", "0", "--rounds", "1", "--port", "0"],
            "iterations",
        ),
        (
            &["--duration-secs", "0", "--rounds", "1", "--port", "0"],
            "duration_secs",
        ),
    ];
    for (args, names) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_meterstick-daemon"))
            .args(args)
            .output()
            .expect("the daemon binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
    }
}
