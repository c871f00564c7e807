//! `dapc-analyze` — the workspace invariant linter.
//!
//! Every guarantee this workspace sells — byte-identical reports at any
//! worker count, sweep parts that append in order to the single-process
//! result, chaos runs that fail loudly or match the fault-free baseline
//! — rests on *source-level* invariants: key-derived RNGs, no hash-order
//! leaks into report bytes, no stray threads outside the executor,
//! sealed versioned snapshot magics, justified atomic orderings, no
//! panics in library paths. The runtime identity tests exercise those
//! invariants on the corpora they happen to run; this crate checks them
//! on every line, statically, in CI. One more rule keeps the code lean:
//! no `pub` item without a caller.
//!
//! The design is deliberately lexical: a small
//! comment/string/raw-string-aware lexer ([`lexer`]) blanks everything
//! a rule must not look inside, and the rule engine ([`rules`]) does
//! identifier-level searches over the blanked view; the cross-file
//! `dead-pub` rule reads an identifier index of the whole workspace
//! ([`CallerIndex`]). That makes the analyzer fast (one pass per file,
//! zero dependencies), trivially predictable, and impossible to crash
//! on malformed input — at the cost of being conservative: it flags
//! *potential* violations and relies on visible
//! `// dapc-allow(rule): reason` annotations for the sites a human has
//! argued safe. Every exception is therefore in the diff, with its
//! justification next to it.
//!
//! Run it as `dapc-analyze --workspace` (the CI gate), or point it at
//! individual files of the lint scope (without `dead-pub`, which needs
//! the index). See `crates/analyze/README.md` for the rule table.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

pub use rules::{check_file, CallerIndex, Config, FileCtx, FileRole, Finding, RULE_NAMES};

use std::fs;
use std::path::{Path, PathBuf};

/// Analyze one in-memory source file under the given config.
/// `rel_path` must be workspace-relative with `/` separators (it drives
/// the allowlists); `crate_name` is the short crate directory name
/// (`"runtime"` for `crates/runtime`). One file has no caller index, so
/// the cross-file `dead-pub` rule is skipped.
pub fn analyze_source(
    rel_path: &str,
    crate_name: &str,
    role: FileRole,
    source: &[u8],
    config: &Config,
) -> Vec<Finding> {
    let scan = lexer::scan(source);
    let ctx = FileCtx {
        path: rel_path,
        crate_name,
        role,
        scan: &scan,
        config,
        callers: None,
    };
    let mut out = Vec::new();
    check_file(&ctx, &mut out);
    out
}

/// Analyze a set of in-memory files, each a workspace-relative path
/// (`/` separators) and its source. The per-file rules cover
/// `crates/*/src`, the facade `src/` and vendored crate roots
/// (`vendor/*/src/lib.rs`, `forbid-unsafe` only). Every file outside
/// `vendor/` also counts as a caller for `dead-pub`: tests, benches,
/// examples and `perfbench/src` are indexed but not linted.
///
/// Returns findings sorted by (file, line).
pub fn analyze_files<P: AsRef<str>, S: AsRef<[u8]>>(
    files: &[(P, S)],
    config: &Config,
) -> Vec<Finding> {
    let scans: Vec<_> = files
        .iter()
        .map(|(_, src)| lexer::scan(src.as_ref()))
        .collect();
    let mut callers = CallerIndex::default();
    for ((path, _), scan) in files.iter().zip(&scans) {
        if !path.as_ref().starts_with("vendor/") {
            callers.add(&scan.code);
        }
    }
    let mut findings = Vec::new();
    for ((path, _), scan) in files.iter().zip(&scans) {
        let path = path.as_ref();
        if let Some((crate_name, role)) = lint_scope(path) {
            let ctx = FileCtx {
                path,
                crate_name,
                role,
                scan,
                config,
                callers: Some(&callers),
            };
            check_file(&ctx, &mut findings);
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Analyze one file of the workspace rooted at `root` on its own, with
/// the crate and role [`analyze_workspace`] gives it: every per-file
/// rule, but no `dead-pub` (one file has no caller index). A path
/// outside the lint scope (a test, bench or example, or a file outside
/// the workspace's sources) is an error that names it; an unreadable
/// file is an `io` finding.
pub fn analyze_file(root: &Path, file: &Path, config: &Config) -> Result<Vec<Finding>, String> {
    let canonical = |p: &Path| p.canonicalize().unwrap_or_else(|_| p.to_path_buf());
    let rel = rel_path(&canonical(root), &canonical(file));
    let Some((crate_name, role)) = lint_scope(&rel) else {
        return Err(format!(
            "{rel}: not in the lint scope (crates/*/src, src/, vendor/*/src/lib.rs)"
        ));
    };
    Ok(match fs::read(file) {
        Ok(source) => analyze_source(&rel, crate_name, role, &source, config),
        Err(err) => vec![read_failure(&rel, &err)],
    })
}

/// Analyze the whole workspace rooted at `root`: every `.rs` file under
/// `crates/*/{src,tests,benches}`, the facade's `src/`, `tests/` and
/// `examples/`, and `perfbench/src`, plus the vendored stand-ins' crate
/// roots; see [`analyze_files`] for what each is checked for.
///
/// Returns findings sorted by (file, line). I/O errors surface as
/// findings too, so a broken tree fails the gate instead of passing
/// silently.
pub fn analyze_workspace(root: &Path, config: &Config) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut paths = Vec::new();
    for crate_dir in sorted_dirs(&root.join("crates"), &mut findings) {
        for tree in ["src", "tests", "benches"] {
            paths.extend(rs_files(&crate_dir.join(tree), &mut findings));
        }
    }
    for tree in ["src", "tests", "examples", "perfbench/src"] {
        paths.extend(rs_files(&root.join(tree), &mut findings));
    }
    for vendor_crate in sorted_dirs(&root.join("vendor"), &mut findings) {
        let lib = vendor_crate.join("src").join("lib.rs");
        if lib.is_file() {
            paths.push(lib);
        }
    }

    let mut files = Vec::new();
    for path in paths {
        let rel = rel_path(root, &path);
        match fs::read(&path) {
            Ok(source) => files.push((rel, source)),
            Err(err) => findings.push(read_failure(&rel, &err)),
        }
    }
    if !files.iter().any(|(rel, _)| *rel == config.registry_path) {
        findings.push(Finding {
            file: config.registry_path.clone(),
            line: 1,
            rule: "magic-registry",
            message: "central snapshot-magic registry module not found".into(),
        });
    }
    findings.extend(analyze_files(&files, config));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// The crate and role of a file the per-file rules cover, or `None` for
/// a file that is only a caller.
fn lint_scope(rel: &str) -> Option<(&str, FileRole)> {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (krate, in_crate) = rest.split_once('/')?;
        return in_crate.starts_with("src/").then(|| (krate, role_of(rel)));
    }
    if let Some(rest) = rel.strip_prefix("vendor/") {
        let (krate, in_crate) = rest.split_once('/')?;
        return (in_crate == "src/lib.rs").then_some((krate, FileRole::VendorRoot));
    }
    rel.starts_with("src/").then(|| ("dapc", role_of(rel)))
}

/// Role of a workspace-relative path.
fn role_of(rel: &str) -> FileRole {
    if rel.ends_with("/src/lib.rs") || rel == "src/lib.rs" {
        FileRole::CrateRoot
    } else if rel.contains("/src/bin/") || rel.ends_with("/src/main.rs") {
        FileRole::BinRoot
    } else {
        FileRole::Module
    }
}

/// The `io` finding of a file that could not be read.
fn read_failure(rel: &str, err: &std::io::Error) -> Finding {
    Finding {
        file: rel.to_string(),
        line: 0,
        rule: "io",
        message: format!("failed to read: {err}"),
    }
}

/// Workspace-relative path with `/` separators.
fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Immediate subdirectories of `dir`, name-sorted for deterministic
/// report order.
fn sorted_dirs(dir: &Path, findings: &mut Vec<Finding>) -> Vec<PathBuf> {
    let mut out = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                if entry.path().is_dir() {
                    out.push(entry.path());
                }
            }
        }
        Err(err) => findings.push(Finding {
            file: dir.to_string_lossy().into_owned(),
            line: 0,
            rule: "io",
            message: format!("failed to list: {err}"),
        }),
    }
    out.sort();
    out
}

/// All `.rs` files under `dir`, recursively, name-sorted.
fn rs_files(dir: &Path, findings: &mut Vec<Finding>) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = match fs::read_dir(&d) {
            Ok(e) => e,
            Err(err) => {
                if d != *dir {
                    findings.push(Finding {
                        file: d.to_string_lossy().into_owned(),
                        line: 0,
                        rule: "io",
                        message: format!("failed to list: {err}"),
                    });
                }
                continue;
            }
        };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Locate the workspace root: walk up from `start` until a directory
/// containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
