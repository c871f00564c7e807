//! The `dapc-analyze` binary: the CI gate for the workspace invariant
//! linter.
//!
//! ```text
//! dapc-analyze --workspace [--root PATH]   # lint the whole workspace
//! dapc-analyze --list-rules                # print the rule names
//! dapc-analyze FILE.rs [FILE.rs …]         # lint individual files (no dead-pub)
//! ```
//!
//! A file is linted as `--workspace` lints it; a file `--workspace`
//! only indexes (a test, bench or example) is refused.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage / I/O trouble or a
//! file outside the lint scope.
//! Violations print one per line as `path:line: [rule] message`, so
//! they are clickable in editors and greppable in CI logs.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use dapc_analyze::{analyze_file, analyze_workspace, find_workspace_root, Config, RULE_NAMES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: dapc-analyze --workspace [--root PATH] | --list-rules | FILE.rs …");
        return ExitCode::from(2);
    }

    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for rule in RULE_NAMES {
                    println!("{rule}");
                }
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return ExitCode::from(2);
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let config = Config::workspace();
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("dapc-analyze: could not locate the workspace root (try --root)");
            return ExitCode::from(2);
        }
    };
    let findings = if workspace {
        analyze_workspace(&root, &config)
    } else {
        let mut out = Vec::new();
        for file in &files {
            match analyze_file(&root, file, &config) {
                Ok(found) => out.extend(found),
                Err(msg) => {
                    eprintln!("dapc-analyze: {msg}");
                    return ExitCode::from(2);
                }
            }
        }
        out
    };

    if findings.is_empty() {
        println!("dapc-analyze: clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        eprintln!("dapc-analyze: {} violation(s)", findings.len());
        ExitCode::from(1)
    }
}
