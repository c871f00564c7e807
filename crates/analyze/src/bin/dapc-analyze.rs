//! The `dapc-analyze` binary: the CI gate for the workspace invariant
//! linter.
//!
//! ```text
//! dapc-analyze --workspace [--root PATH]   # lint the whole workspace
//! dapc-analyze --list-rules                # print the rule names
//! dapc-analyze FILE.rs [FILE.rs …]         # lint individual files (no dead-pub)
//! ```
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage / I/O trouble.
//! Violations print one per line as `path:line: [rule] message`, so
//! they are clickable in editors and greppable in CI logs.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dapc_analyze::{analyze_workspace, find_workspace_root, Config, RULE_NAMES};

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
    let findings = if workspace {
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
        analyze_workspace(&root, &config)
    } else {
        // Individual files: resolve each against the located workspace
        // root so allowlists keyed on relative paths still apply.
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let ws = root.or_else(|| find_workspace_root(&cwd));
        let mut out = Vec::new();
        for file in &files {
            out.extend(analyze_one(file, ws.as_deref(), &config));
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

fn analyze_one(file: &Path, ws: Option<&Path>, config: &Config) -> Vec<dapc_analyze::Finding> {
    let abs = file.canonicalize().unwrap_or_else(|_| file.to_path_buf());
    let rel = ws
        .and_then(|w| abs.strip_prefix(w).ok())
        .unwrap_or(&abs)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/");
    // Infer the crate name from a `crates/<name>/` path component.
    let crate_name = rel
        .strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or("dapc")
        .to_string();
    let role = if rel.ends_with("/src/lib.rs") || rel == "src/lib.rs" {
        dapc_analyze::FileRole::CrateRoot
    } else if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
        dapc_analyze::FileRole::BinRoot
    } else {
        dapc_analyze::FileRole::Module
    };
    match std::fs::read(file) {
        Ok(src) => dapc_analyze::analyze_source(&rel, &crate_name, role, &src, config),
        Err(err) => vec![dapc_analyze::Finding {
            file: rel,
            line: 0,
            rule: "io",
            message: format!("failed to read: {err}"),
        }],
    }
}
