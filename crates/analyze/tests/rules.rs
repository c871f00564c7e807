//! Per-rule fixtures: one positive (the rule fires) and one negative
//! (allowlist, annotation, or out-of-scope crate) for every rule the
//! engine ships, plus the suppression-grammar corner cases; `dead-pub`
//! runs over in-memory workspaces.

use dapc_analyze::{analyze_files, analyze_source, Config, FileRole, Finding};

fn run(path: &str, krate: &str, role: FileRole, src: &str) -> Vec<Finding> {
    analyze_source(path, krate, role, src.as_bytes(), &Config::workspace())
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- hash-iter

#[test]
fn hash_iter_fires_in_report_crates() {
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        "fn f() { let m = std::collections::HashMap::new(); }\n",
    );
    assert_eq!(rules_of(&f), ["hash-iter"]);
    assert_eq!(f[0].line, 1);
}

#[test]
fn hash_iter_ignores_out_of_scope_crates_and_annotations() {
    // obs is exempt by module contract.
    let f = run(
        "crates/obs/src/x.rs",
        "obs",
        FileRole::Module,
        "fn f() { let m = std::collections::HashMap::new(); }\n",
    );
    assert!(f.is_empty());
    // An annotated lookup-only use is exempt anywhere.
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        "// dapc-allow(hash-iter): lookup-only memo, never iterated\n\
         fn f() { let m = std::collections::HashMap::new(); }\n",
    );
    assert!(f.is_empty());
}

#[test]
fn hash_iter_ignores_strings_comments_and_tests() {
    let src = "fn f() { let s = \"HashMap\"; } // HashMap\n\
               #[cfg(test)]\nmod tests {\n    fn g() { let m = std::collections::HashMap::new(); }\n}\n";
    let f = run("crates/runtime/src/x.rs", "runtime", FileRole::Module, src);
    assert!(f.is_empty());
}

#[test]
fn a_semicolon_inside_brackets_does_not_end_a_test_item() {
    // The `;` of `[u8; 2]` comes before each item's body.
    let item = "#[cfg(test)] const X: [u8; 2] = \
                { let _m = std::collections::HashMap::<u8, u8>::new(); [0, 0] };\n";
    let func = "#[cfg(test)]\nfn f(_: [u8; 2]) {\n    \
                let _m = std::collections::HashMap::<u8, u8>::new();\n}\n";
    for src in [item, func] {
        let f = run("crates/runtime/src/x.rs", "runtime", FileRole::Module, src);
        assert!(f.is_empty(), "{src}: {f:?}");
    }
    // The item still ends: library code after it is linted.
    let after =
        format!("{item}fn g() {{ let _m = std::collections::HashMap::<u8, u8>::new(); }}\n");
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        &after,
    );
    assert_eq!(rules_of(&f), ["hash-iter"]);
    assert_eq!(f[0].line, 2);
}

// ---------------------------------------------------------------- wall-clock

#[test]
fn wall_clock_fires_outside_timing_layers() {
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        "fn f() { let t = std::time::Instant::now(); }\n",
    );
    assert_eq!(rules_of(&f), ["wall-clock"]);
}

#[test]
fn wall_clock_allows_obs_and_annotations() {
    let src = "fn f() { let t = std::time::Instant::now(); }\n";
    assert!(run("crates/obs/src/x.rs", "obs", FileRole::Module, src).is_empty());
    let annotated = "// dapc-allow(wall-clock): telemetry only\n\
                     fn f() { let t = std::time::Instant::now(); }\n";
    assert!(run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        annotated
    )
    .is_empty());
    // `Instant` alone (no ::now) is not a violation.
    let ty_only = "fn f(deadline: std::time::Instant) {}\n";
    assert!(run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        ty_only
    )
    .is_empty());
}

// ---------------------------------------------------------------- rng

#[test]
fn rng_fires_outside_key_derivation_sites() {
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        "fn f() { let r = StdRng::seed_from_u64(7); }\n",
    );
    assert_eq!(rules_of(&f), ["rng"]);
}

#[test]
fn rng_allows_the_derivation_module() {
    let f = run(
        "crates/core/src/engine/config.rs",
        "core",
        FileRole::Module,
        "fn f() { let r = StdRng::seed_from_u64(7); }\n",
    );
    assert!(f.is_empty());
}

// ---------------------------------------------------------------- thread-spawn

#[test]
fn thread_spawn_fires_outside_exec() {
    let f = run(
        "crates/serve/src/x.rs",
        "serve",
        FileRole::Module,
        "fn f() { std::thread::spawn(|| {}); }\n",
    );
    assert_eq!(rules_of(&f), ["thread-spawn"]);
}

#[test]
fn thread_spawn_allows_exec_and_annotations() {
    let src = "fn f() { std::thread::spawn(|| {}); }\n";
    assert!(run("crates/exec/src/x.rs", "exec", FileRole::Module, src).is_empty());
    let annotated = "// dapc-allow(thread-spawn): supervised service thread\n\
                     fn f() { std::thread::spawn(|| {}); }\n";
    assert!(run(
        "crates/serve/src/x.rs",
        "serve",
        FileRole::Module,
        annotated
    )
    .is_empty());
}

// ---------------------------------------------------------------- ordering

#[test]
fn ordering_requires_a_justification_comment() {
    let f = run(
        "crates/core/src/x.rs",
        "core",
        FileRole::Module,
        "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n",
    );
    assert_eq!(rules_of(&f), ["ordering"]);
}

#[test]
fn ordering_accepts_same_line_above_line_and_allowlisted_modules() {
    let same_line =
        "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); } // ordering: Relaxed — counter\n";
    assert!(run("crates/core/src/x.rs", "core", FileRole::Module, same_line).is_empty());
    let above = "fn f(a: &AtomicU64) {\n    // ordering: Relaxed — counter, nothing synchronises on it\n    a.load(Ordering::Relaxed);\n}\n";
    assert!(run("crates/core/src/x.rs", "core", FileRole::Module, above).is_empty());
    let bare = "fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n";
    assert!(run("crates/obs/src/lib.rs", "obs", FileRole::Module, bare).is_empty());
}

// ---------------------------------------------------------------- forbid-unsafe

#[test]
fn forbid_unsafe_fires_on_bare_crate_roots() {
    let f = run(
        "crates/serve/src/lib.rs",
        "serve",
        FileRole::CrateRoot,
        "pub fn f() {}\n",
    );
    assert_eq!(rules_of(&f), ["forbid-unsafe"]);
    // Bin roots too.
    let f = run(
        "crates/serve/src/bin/x.rs",
        "serve",
        FileRole::BinRoot,
        "fn main() {}\n",
    );
    assert_eq!(rules_of(&f), ["forbid-unsafe"]);
}

#[test]
fn forbid_unsafe_passes_attributed_roots_and_skips_modules() {
    let f = run(
        "crates/serve/src/lib.rs",
        "serve",
        FileRole::CrateRoot,
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    );
    assert!(f.is_empty());
    // Plain modules never need the attribute.
    let f = run(
        "crates/serve/src/x.rs",
        "serve",
        FileRole::Module,
        "pub fn f() {}\n",
    );
    assert!(f.is_empty());
}

// ---------------------------------------------------------------- panic

#[test]
fn panic_fires_on_unwrap_expect_and_panic_in_covered_crates() {
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
         fn g(x: Option<u32>) -> u32 { x.expect(\"msg\") }\n\
         fn h() { panic!(\"boom\"); }\n",
    );
    assert_eq!(rules_of(&f), ["panic", "panic", "panic"]);
}

#[test]
fn panic_skips_uncovered_crates_tests_and_annotated_sites() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    // core is not a panic-rule crate.
    assert!(run("crates/core/src/x.rs", "core", FileRole::Module, src).is_empty());
    // Test modules are exempt.
    let test_src = "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) -> u32 { x.unwrap() }\n}\n";
    assert!(run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        test_src
    )
    .is_empty());
    // An annotated provably-infallible site is exempt.
    let annotated = "fn f(x: Option<u32>) -> u32 {\n    // dapc-allow(panic): checked non-empty above\n    x.unwrap()\n}\n";
    assert!(run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        annotated
    )
    .is_empty());
    // `expect` as a method *definition* name is not a call site.
    let defn = "fn expect(x: u32) -> u32 { x }\n";
    assert!(run("crates/runtime/src/x.rs", "runtime", FileRole::Module, defn).is_empty());
}

// ---------------------------------------------------------------- allow grammar

#[test]
fn allow_without_a_reason_does_not_suppress() {
    let src = "// dapc-allow(panic):\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let f = run("crates/runtime/src/x.rs", "runtime", FileRole::Module, src);
    assert_eq!(rules_of(&f), ["panic"]);
}

#[test]
fn allow_for_one_rule_does_not_suppress_another() {
    let src = "// dapc-allow(hash-iter): wrong rule\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let f = run("crates/runtime/src/x.rs", "runtime", FileRole::Module, src);
    assert_eq!(rules_of(&f), ["panic"]);
}

// ---------------------------------------------------------------- magic-registry

#[test]
fn magic_outside_the_registry_fires() {
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        "const M: &[u8; 8] = b\"DAPCXYZ\\x01\";\n",
    );
    assert_eq!(rules_of(&f), ["magic-registry"]);
}

#[test]
fn non_magic_byte_strings_do_not_fire() {
    let f = run(
        "crates/runtime/src/x.rs",
        "runtime",
        FileRole::Module,
        "const M: &[u8; 4] = b\"PNG\\x89\";\nconst S: &str = \"DAPCXYZ\";\n",
    );
    assert!(f.is_empty());
}

fn run_registry(src: &str) -> Vec<Finding> {
    run(
        "crates/core/src/snapmagic.rs",
        "core",
        FileRole::Module,
        src,
    )
}

#[test]
fn consistent_registry_is_clean() {
    let src = "pub static A: Magic = Magic { bytes: b\"DAPCAAA\\x01\", sealed: false };\n\
               pub static B: Magic = Magic { bytes: b\"DAPCBBB\\x02\", sealed: true };\n";
    assert!(run_registry(src).is_empty());
}

#[test]
fn registry_rejects_bad_entries() {
    // Wrong length.
    let f =
        run_registry("pub static A: Magic = Magic { bytes: b\"DAPCAA\\x01\", sealed: false };\n");
    assert_eq!(rules_of(&f), ["magic-registry"]);
    // Unknown version byte.
    let f =
        run_registry("pub static A: Magic = Magic { bytes: b\"DAPCAAA\\x03\", sealed: true };\n");
    assert!(!f.is_empty());
    // Duplicate magic and reused tag.
    let f = run_registry(
        "pub static A: Magic = Magic { bytes: b\"DAPCAAA\\x01\", sealed: false };\n\
         pub static B: Magic = Magic { bytes: b\"DAPCAAA\\x01\", sealed: false };\n",
    );
    assert!(f.iter().any(|x| x.message.contains("declared twice")));
    // Seal flag contradicting the version convention.
    let f =
        run_registry("pub static A: Magic = Magic { bytes: b\"DAPCAAA\\x02\", sealed: false };\n");
    assert!(f.iter().any(|x| x.message.contains("sealed")));
    // Entry missing the sealed flag entirely.
    let f = run_registry("pub static A: &[u8; 8] = b\"DAPCAAA\\x01\";\n");
    assert!(f.iter().any(|x| x.message.contains("no `sealed:` flag")));
    // An empty registry module is itself a violation.
    let f = run_registry("pub struct Magic;\n");
    assert_eq!(rules_of(&f), ["magic-registry"]);
}

// ---------------------------------------------------------------- dead-pub

/// `path:line` of every `dead-pub` finding over an in-memory workspace.
fn dead_pub(files: &[(&str, &str)]) -> Vec<String> {
    analyze_files(files, &Config::workspace())
        .into_iter()
        .filter(|f| f.rule == "dead-pub")
        .map(|f| format!("{}:{}", f.file, f.line))
        .collect()
}

const LIB: &str = "crates/graph/src/a.rs";

#[test]
fn dead_pub_fires_on_an_item_named_nowhere_else() {
    let f = analyze_files(
        &[
            (LIB, "pub fn lonely() {}\n"),
            ("crates/core/src/b.rs", "fn g() {}\n"),
        ],
        &Config::workspace(),
    );
    assert_eq!(rules_of(&f), ["dead-pub"]);
    assert_eq!(f[0].line, 1);
    assert!(f[0].message.contains("`pub fn lonely`"), "{}", f[0].message);
}

#[test]
fn dead_pub_covers_every_item_kind() {
    let src = "pub fn a() {}\n\
               pub const fn b() {}\n\
               pub unsafe extern \"C\" fn c() {}\n\
               pub struct D;\n\
               pub enum E {}\n\
               pub trait F {}\n\
               pub type G = u8;\n\
               pub const H: u8 = 0;\n\
               pub static I: u8 = 0;\n\
               pub static mut J: u8 = 0;\n\
               pub mod k {}\n";
    let lines: Vec<String> = (1..=11).map(|l| format!("{LIB}:{l}")).collect();
    assert_eq!(dead_pub(&[(LIB, src)]), lines);
}

#[test]
fn dead_pub_fires_when_only_its_own_tests_name_it() {
    let src = "pub fn helper() -> u8 { 1 }\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { assert_eq!(super::helper(), 1); }\n}\n";
    assert_eq!(dead_pub(&[(LIB, src)]), [format!("{LIB}:1")]);
}

#[test]
fn dead_pub_ignores_names_in_comments_and_strings() {
    let other = "// helper() is called here\nfn g() -> &'static str { \"helper\" }\n";
    assert_eq!(
        dead_pub(&[
            (LIB, "pub fn helper() {}\n"),
            ("crates/core/src/b.rs", other)
        ]),
        [format!("{LIB}:1")]
    );
}

#[test]
fn dead_pub_allow_needs_a_reason() {
    let bare = "// dapc-allow(dead-pub):\npub fn kept() {}\n";
    assert_eq!(dead_pub(&[(LIB, bare)]), [format!("{LIB}:2")]);
    let reasoned = "// dapc-allow(dead-pub): ROADMAP item 17 wires it\npub fn kept() {}\n";
    assert!(dead_pub(&[(LIB, reasoned)]).is_empty());
}

#[test]
fn dead_pub_counts_every_caller_tree() {
    let item = (LIB, "pub fn used() {}\n");
    for caller in [
        "crates/core/src/b.rs",
        "crates/core/src/bin/tool.rs",
        "crates/core/tests/t.rs",
        "crates/bench/benches/b.rs",
        "src/lib.rs",
        "tests/t.rs",
        "examples/demo.rs",
        "perfbench/src/main.rs",
    ] {
        let found = dead_pub(&[item, (caller, "fn main() { used(); }\n")]);
        assert!(
            found.is_empty(),
            "{caller} must count as a caller: {found:?}"
        );
    }
    // A vendored stand-in is not a caller.
    let vendor = ("vendor/rand/src/lib.rs", "pub fn f() { used(); }\n");
    assert_eq!(dead_pub(&[item, vendor]), [format!("{LIB}:1")]);
}

#[test]
fn dead_pub_accepts_a_use_in_its_own_non_test_code() {
    let src = "pub fn step() {}\npub fn run() { step(); step(); }\n";
    let caller = ("crates/core/src/b.rs", "fn g() { run(); }\n");
    assert!(dead_pub(&[(LIB, src), caller]).is_empty());
}

#[test]
fn dead_pub_skips_binaries_restricted_visibility_and_tests() {
    let bin = (
        "crates/graph/src/bin/tool.rs",
        "pub fn lonely() {}\nfn main() {}\n",
    );
    assert!(dead_pub(&[bin]).is_empty());
    let restricted = "pub(crate) fn a() {}\npub(super) fn b() {}\npub(in crate::x) fn c() {}\n";
    assert!(dead_pub(&[(LIB, restricted)]).is_empty());
    let gated = "#[cfg(test)]\npub fn reference() {}\n";
    assert!(dead_pub(&[(LIB, gated)]).is_empty());
}

#[test]
fn a_single_file_run_skips_dead_pub() {
    let f = run(LIB, "graph", FileRole::Module, "pub fn lonely() {}\n");
    assert!(f.is_empty());
}
