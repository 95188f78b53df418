//! `cargo xtask` argument handling, through the built binary.

use std::process::Command;

#[test]
fn a_seed_count_that_is_not_positive_is_a_usage_error() {
    for seeds in ["0", "x"] {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(["chaos", "--seeds", seeds])
            .output()
            .expect("the xtask binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--seeds {seeds}: {stderr}");
        assert!(stderr.contains("usage: cargo xtask"), "--seeds {seeds}: {stderr}");
    }
}
