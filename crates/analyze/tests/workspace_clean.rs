//! The gate, as a test: the shipped workspace must be clean under the
//! shipped config, and the central magic registry must be present and
//! consistent. A regression here is exactly what the CI job would
//! catch — this test catches it at `cargo test` time too. A single-file
//! run of the binary lints a file as `--workspace` does, or refuses it.

use dapc_analyze::{analyze_workspace, find_workspace_root, Config};

#[test]
fn workspace_is_clean_under_the_shipped_config() {
    let here = std::env::current_dir().expect("cwd");
    let root = find_workspace_root(&here).expect("workspace root above the test cwd");
    let findings = analyze_workspace(&root, &Config::workspace());
    assert!(
        findings.is_empty(),
        "dapc-analyze found violations:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn a_seeded_violation_fails_the_gate() {
    // The CI job's self-test: the analyzer must actually be able to
    // fail. Seed one violation of each headline rule into a synthetic
    // module of a covered crate and check every rule fires.
    let src = "\
        fn f() {\n\
            let m = std::collections::HashMap::new();\n\
            let t = std::time::Instant::now();\n\
            std::thread::spawn(|| {});\n\
            let r = StdRng::seed_from_u64(7);\n\
            let v: Option<u32> = None;\n\
            v.unwrap();\n\
        }\n";
    let findings = dapc_analyze::analyze_source(
        "crates/runtime/src/seeded.rs",
        "runtime",
        dapc_analyze::FileRole::Module,
        src.as_bytes(),
        &Config::workspace(),
    );
    let rules: std::collections::BTreeSet<_> = findings.iter().map(|f| f.rule).collect();
    for rule in ["hash-iter", "wall-clock", "thread-spawn", "rng", "panic"] {
        assert!(rules.contains(rule), "seeded {rule} violation did not fire");
    }
    // And a public item nothing calls, seeded into a library crate.
    let findings = dapc_analyze::analyze_files(
        &[(
            "crates/graph/src/seeded_dead.rs",
            "pub fn seeded_dead_item() {}\n",
        )],
        &Config::workspace(),
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "dead-pub" && f.message.contains("seeded_dead_item")),
        "seeded dead-pub violation did not fire: {findings:?}"
    );
}

#[test]
fn a_single_file_run_lints_what_the_workspace_run_lints() {
    // A scratch workspace with one `.unwrap()` in three places. The
    // `panic` rule covers `runtime` and `serve` only, so a finding on the
    // library file shows it was linted as crate `runtime`.
    let root = std::env::temp_dir().join(format!("dapc-analyze-scope-{}", std::process::id()));
    let body = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";
    for rel in [
        "crates/runtime/src/seeded.rs",
        "crates/runtime/tests/seeded.rs",
        "examples/seeded.rs",
    ] {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(&path, body).expect("write");
    }
    let run = |rel: &str| {
        std::process::Command::new(env!("CARGO_BIN_EXE_dapc-analyze"))
            .arg("--root")
            .arg(&root)
            .arg(root.join(rel))
            .output()
            .expect("run dapc-analyze")
    };
    let lib = run("crates/runtime/src/seeded.rs");
    assert_eq!(lib.status.code(), Some(1), "{lib:?}");
    assert!(
        String::from_utf8_lossy(&lib.stdout).contains("crates/runtime/src/seeded.rs:2: [panic]"),
        "{lib:?}"
    );
    for rel in ["crates/runtime/tests/seeded.rs", "examples/seeded.rs"] {
        let out = run(rel);
        assert_eq!(out.status.code(), Some(2), "{rel} was linted: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(rel),
            "the refusal must name {rel}: {out:?}"
        );
        assert!(out.stdout.is_empty(), "{rel}: {out:?}");
    }
    std::fs::remove_dir_all(&root).ok();
}
