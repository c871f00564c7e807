//! The `tables` binary's one failure exit: a metrics snapshot that
//! cannot be written is filesystem trouble, so the run dies with the
//! transient-I/O code of `dapc_serve::exit` instead of a panic status.

use dapc_serve::exit;
use std::process::{Command, Stdio};

const TABLES: &str = env!("CARGO_BIN_EXE_tables");

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
