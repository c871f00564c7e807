//! The `tables` binary's failure exits: a bad command line is a usage
//! error, found before any experiment prints, and a metrics snapshot
//! that cannot be written is filesystem trouble. Both die with the code
//! of `dapc_serve::exit` instead of a panic status.

use dapc_serve::exit;
use std::process::{Command, Stdio};

const TABLES: &str = env!("CARGO_BIN_EXE_tables");

#[test]
fn a_bad_command_line_exits_with_the_usage_code_before_any_table() {
    for args in [
        &["--bogus"][..],
        &["--jobs", "x", "e4"],
        &["--jobs"],
        &["--quick", "e4", "e11"],
        &["quick", "e4"],
    ] {
        let out = Command::new(TABLES)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .expect("run tables");
        assert_eq!(out.status.code(), Some(exit::EXIT_USAGE), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a table");
    }
}

#[test]
fn an_unwritable_metrics_path_exits_with_the_io_code() {
    let status = Command::new(TABLES)
        .args([
            "--quick",
            "--metrics",
            "/definitely/no/such/dir/obs.json",
            "e4",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run tables");
    assert_eq!(status.code(), Some(exit::EXIT_IO), "{status:?}");
}
