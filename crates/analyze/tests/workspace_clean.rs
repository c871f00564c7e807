//! The gate, as a test: the shipped workspace must be clean under the
//! shipped config, and the central magic registry must be present and
//! consistent. A regression here is exactly what the CI job would
//! catch — this test catches it at `cargo test` time too.

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
