//! The rule engine: each contract the workspace sells is a named,
//! individually-testable rule over a [`Scan`].
//!
//! Every rule honours the inline suppression annotation
//!
//! ```text
//! // dapc-allow(rule-name): reason why this site is exempt
//! ```
//!
//! placed on the violating line or on a comment-only line block
//! immediately above it. The reason is mandatory — an allow without a
//! justification is itself a violation — so every exception is visible
//! and explained in the diff that introduces it.

use crate::lexer::{find_sub, Scan};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

/// One violation: file-relative path, 1-indexed line, rule name and a
/// human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// What kind of file is being analyzed; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// `src/lib.rs` of a workspace crate.
    CrateRoot,
    /// `src/bin/*.rs` / `src/main.rs` of a workspace crate.
    BinRoot,
    /// Any other module under a workspace crate's `src/`.
    Module,
    /// A vendored stand-in's crate root — only `forbid-unsafe` applies
    /// (the stand-ins legitimately construct RNGs and spawn threads).
    VendorRoot,
}

/// Engine configuration: which crates each rule covers and the built-in
/// module allowlists. Paths are workspace-relative with `/` separators.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose non-test `src/` may not mention `HashMap`/`HashSet`
    /// without an allow annotation (the report/snapshot-byte set).
    pub hash_crates: Vec<String>,
    /// Path prefixes exempt from the `wall-clock` rule (timing layers).
    pub wallclock_allow: Vec<String>,
    /// Path prefixes where RNG construction is legitimate (the
    /// key-derivation sites).
    pub rng_allow: Vec<String>,
    /// Path prefixes allowed to spawn raw threads.
    pub spawn_allow: Vec<String>,
    /// Path prefixes whose `Ordering::` uses are governed by a
    /// module-level ordering contract instead of per-site comments.
    pub ordering_allow: Vec<String>,
    /// Crates whose library paths ban `.unwrap()`/`.expect()`/`panic!`.
    pub panic_crates: Vec<String>,
    /// The one file allowed to declare `b"DAPC…"` magics.
    pub registry_path: String,
}

impl Config {
    /// The workspace contract as shipped. Every allowlist entry here is
    /// a *module-level* exemption with a documented contract; per-site
    /// exemptions use `dapc-allow` annotations instead.
    pub fn workspace() -> Config {
        Config {
            // Everything that feeds report or snapshot bytes. `obs` is
            // exempt by module contract: its registry is unordered by
            // design and every exposure sorts at snapshot time.
            hash_crates: [
                "graph", "conc", "local", "ilp", "decomp", "core", "runtime", "chaos", "lower",
                "serve", "bench",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            // Timing layers: observability histograms and the bench /
            // tables walls. Everything else annotates per site.
            wallclock_allow: vec!["crates/obs/".into(), "crates/bench/".into()],
            // The single key-derivation site: SolveConfig::rng derives
            // every solver stream from the config seed / JobKey.
            rng_allow: vec!["crates/core/src/engine/config.rs".into()],
            // The executor owns its worker threads.
            spawn_allow: vec!["crates/exec/".into()],
            // Modules with a documented ordering contract at the top of
            // the file (obs is relaxed-everywhere by design).
            ordering_allow: vec!["crates/obs/src/lib.rs".into()],
            panic_crates: vec!["runtime".into(), "serve".into()],
            registry_path: "crates/core/src/snapmagic.rs".into(),
        }
    }

    fn path_allowed(list: &[String], path: &str) -> bool {
        list.iter().any(|p| path.starts_with(p.as_str()))
    }
}

/// How many files name each identifier, over every file that can call
/// library code. A workspace run builds one for the cross-file
/// `dead-pub` rule; a single-file run has none and skips that rule.
#[derive(Debug, Default)]
pub struct CallerIndex {
    files: BTreeMap<Vec<u8>, usize>,
}

impl CallerIndex {
    /// Count each identifier of one file's blanked code once.
    pub(crate) fn add(&mut self, code: &[u8]) {
        let mut seen = BTreeSet::new();
        let mut i = 0;
        while i < code.len() {
            let start = i;
            while i < code.len() && is_ident_byte(code[i]) {
                i += 1;
            }
            if i == start {
                i += 1;
            } else if !code[start].is_ascii_digit() {
                seen.insert(&code[start..i]);
            }
        }
        for ident in seen {
            *self.files.entry(ident.to_vec()).or_default() += 1;
        }
    }

    fn files_naming(&self, ident: &[u8]) -> usize {
        self.files.get(ident).copied().unwrap_or(0)
    }
}

/// Context handed to every rule.
pub struct FileCtx<'a> {
    pub path: &'a str,
    pub crate_name: &'a str,
    pub role: FileRole,
    pub scan: &'a Scan,
    pub config: &'a Config,
    /// The workspace's identifier index, which this file is part of;
    /// `None` skips `dead-pub`.
    pub callers: Option<&'a CallerIndex>,
}

impl<'a> FileCtx<'a> {
    /// Is a violation of `rule` at `line` suppressed by a
    /// `dapc-allow(rule): reason` annotation? The annotation may sit on
    /// the violating line itself or on the comment-only line block
    /// immediately above.
    fn allowed(&self, rule: &str, line: u32) -> bool {
        if has_allow(&self.scan.comment_text_on_line(line), rule) {
            return true;
        }
        let mut l = line;
        while l > 1 && self.scan.line_is_comment_only(l - 1) {
            l -= 1;
            if has_allow(&self.scan.comment_text_on_line(l), rule) {
                return true;
            }
        }
        false
    }

    fn push(&self, out: &mut Vec<Finding>, rule: &'static str, offset: usize, message: String) {
        let line = self.scan.line_of(offset);
        if self.scan.in_test(offset) || self.allowed(rule, line) {
            return;
        }
        out.push(Finding {
            file: self.path.to_string(),
            line,
            rule,
            message,
        });
    }
}

/// Does this comment text carry a well-formed `dapc-allow(rule): reason`
/// for `rule`? A malformed allow (missing reason) never suppresses.
fn has_allow(comment: &str, rule: &str) -> bool {
    let mut rest = comment;
    while let Some(pos) = rest.find("dapc-allow(") {
        rest = &rest[pos + "dapc-allow(".len()..];
        let Some(close) = rest.find(')') else {
            return false;
        };
        let named = rest[..close].trim();
        let after = &rest[close + 1..];
        if named == rule {
            // Require `: non-empty reason`.
            if let Some(stripped) = after.trim_start().strip_prefix(':') {
                let reason = stripped.lines().next().unwrap_or("").trim();
                if !reason.is_empty() {
                    return true;
                }
            }
            return false;
        }
        rest = after;
    }
    false
}

/// Word-boundary occurrences of identifier `name` in the blanked code.
fn ident_sites(code: &[u8], name: &str) -> Vec<usize> {
    let needle = name.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = find_sub(code, needle, from) {
        from = pos + 1;
        let before_ok = pos == 0 || !is_ident_byte(code[pos - 1]);
        let after = pos + needle.len();
        let after_ok = after >= code.len() || !is_ident_byte(code[after]);
        if before_ok && after_ok {
            out.push(pos);
        }
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Skip ASCII whitespace forward from `i`.
fn skip_ws(code: &[u8], mut i: usize) -> usize {
    while i < code.len() && (code[i] as char).is_ascii_whitespace() {
        i += 1;
    }
    i
}

/// All rule names, in report order. Kept in one place so the CLI, the
/// README and the tests can enumerate them.
pub const RULE_NAMES: &[&str] = &[
    "hash-iter",
    "wall-clock",
    "rng",
    "thread-spawn",
    "ordering",
    "forbid-unsafe",
    "panic",
    "magic-registry",
    "dead-pub",
];

/// Run every applicable rule over one file.
pub fn check_file(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    rule_forbid_unsafe(ctx, out);
    if ctx.role == FileRole::VendorRoot {
        return;
    }
    rule_hash_iter(ctx, out);
    rule_wall_clock(ctx, out);
    rule_rng(ctx, out);
    rule_thread_spawn(ctx, out);
    rule_ordering(ctx, out);
    rule_panic(ctx, out);
    rule_magic_registry(ctx, out);
    if let Some(callers) = ctx.callers {
        if ctx.role != FileRole::BinRoot {
            rule_dead_pub(ctx, callers, out);
        }
    }
}

/// `hash-iter`: `HashMap`/`HashSet` may not appear in the non-test
/// source of a crate that produces report or snapshot bytes. Their
/// iteration order is seeded per process, so any leak into an output
/// byte breaks the byte-identity contract; use `BTreeMap`/`BTreeSet` or
/// sort explicitly, or annotate a lookup-only use.
fn rule_hash_iter(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.config.hash_crates.iter().any(|c| c == ctx.crate_name) {
        return;
    }
    for name in ["HashMap", "HashSet"] {
        for pos in ident_sites(&ctx.scan.code, name) {
            ctx.push(
                out,
                "hash-iter",
                pos,
                format!(
                    "`{name}` in a report/snapshot-byte crate: iteration order is \
                     process-seeded; use BTreeMap/BTreeSet or sort explicitly \
                     (or `// dapc-allow(hash-iter): reason` a lookup-only use)"
                ),
            );
        }
    }
}

/// `wall-clock`: `Instant::now` / `SystemTime` only in the timing
/// layers (obs, bench) or behind a per-site annotation. Wall-clock
/// reads feed `wall_ms`-style fields that the identity contracts
/// explicitly exclude — every other use risks leaking nondeterminism.
fn rule_wall_clock(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if Config::path_allowed(&ctx.config.wallclock_allow, ctx.path) {
        return;
    }
    let code = &ctx.scan.code;
    for pos in ident_sites(code, "Instant") {
        let mut j = skip_ws(code, pos + "Instant".len());
        if code.get(j) == Some(&b':') && code.get(j + 1) == Some(&b':') {
            j = skip_ws(code, j + 2);
            if code[j..].starts_with(b"now") {
                ctx.push(
                    out,
                    "wall-clock",
                    pos,
                    "`Instant::now` outside the obs/bench timing layers; \
                     annotate with `// dapc-allow(wall-clock): reason` if this \
                     feeds an identity-exempt timing field"
                        .into(),
                );
            }
        }
    }
    for pos in ident_sites(code, "SystemTime") {
        ctx.push(
            out,
            "wall-clock",
            pos,
            "`SystemTime` outside the obs/bench timing layers".into(),
        );
    }
}

/// `rng`: RNG construction (`seed_from_u64`, `from_seed`,
/// `from_entropy`, `thread_rng`, `from_os_rng`) only at the
/// key-derivation sites. Every solver stream must derive from a
/// `JobKey`/config seed, or byte-identity across worker counts breaks.
fn rule_rng(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if Config::path_allowed(&ctx.config.rng_allow, ctx.path) {
        return;
    }
    for name in [
        "seed_from_u64",
        "from_seed",
        "from_entropy",
        "thread_rng",
        "from_os_rng",
    ] {
        for pos in ident_sites(&ctx.scan.code, name) {
            ctx.push(
                out,
                "rng",
                pos,
                format!(
                    "RNG construction (`{name}`) outside the key-derivation \
                     sites; derive streams from a JobKey/config seed or \
                     annotate with `// dapc-allow(rng): reason`"
                ),
            );
        }
    }
}

/// `thread-spawn`: raw `thread::spawn` only inside `dapc-exec` (the
/// process-wide executor) or behind an annotation naming the supervisor
/// contract. Stray threads bypass the executor's panic propagation and
/// determinism story.
fn rule_thread_spawn(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if Config::path_allowed(&ctx.config.spawn_allow, ctx.path) {
        return;
    }
    let code = &ctx.scan.code;
    for pos in ident_sites(code, "thread") {
        let mut j = skip_ws(code, pos + "thread".len());
        if code.get(j) == Some(&b':') && code.get(j + 1) == Some(&b':') {
            j = skip_ws(code, j + 2);
            if code[j..].starts_with(b"spawn") {
                ctx.push(
                    out,
                    "thread-spawn",
                    pos,
                    "`thread::spawn` outside dapc-exec; run work on the \
                     executor, or `// dapc-allow(thread-spawn): reason` a \
                     supervised service thread"
                        .into(),
                );
            }
        }
    }
}

/// `ordering`: every `Ordering::` atomic access needs an
/// `// ordering:` justification comment on the same line or the
/// comment block immediately above, unless the whole module is
/// allowlisted as carrying a documented ordering contract.
fn rule_ordering(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if Config::path_allowed(&ctx.config.ordering_allow, ctx.path) {
        return;
    }
    let code = &ctx.scan.code;
    for pos in ident_sites(code, "Ordering") {
        let j = skip_ws(code, pos + "Ordering".len());
        if !(code.get(j) == Some(&b':') && code.get(j + 1) == Some(&b':')) {
            continue;
        }
        if ctx.scan.in_test(pos) {
            continue;
        }
        let line = ctx.scan.line_of(pos);
        let mut justified = ctx.scan.comment_text_on_line(line).contains("ordering:");
        let mut l = line;
        while !justified && l > 1 && ctx.scan.line_is_comment_only(l - 1) {
            l -= 1;
            justified = ctx.scan.comment_text_on_line(l).contains("ordering:");
        }
        if !justified {
            ctx.push(
                out,
                "ordering",
                pos,
                "atomic `Ordering::` without an `// ordering:` justification \
                 comment (same line or the comment block above)"
                    .into(),
            );
        }
    }
}

/// `forbid-unsafe`: every crate root (lib and bin, vendored stand-ins
/// included) must carry `#![forbid(unsafe_code)]`.
fn rule_forbid_unsafe(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !matches!(
        ctx.role,
        FileRole::CrateRoot | FileRole::BinRoot | FileRole::VendorRoot
    ) {
        return;
    }
    if find_sub(&ctx.scan.code, b"#![forbid(unsafe_code)]", 0).is_none() {
        out.push(Finding {
            file: ctx.path.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
        });
    }
}

/// `panic`: `.unwrap()` / `.expect(` / `panic!` banned in the library
/// paths of the covered crates (tests and benches are exempt).
/// I/O-adjacent fallibility must flow through the `exit` triage;
/// provably-infallible sites annotate with `dapc-allow(panic)`.
fn rule_panic(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !ctx.config.panic_crates.iter().any(|c| c == ctx.crate_name) {
        return;
    }
    let code = &ctx.scan.code;
    for name in ["unwrap", "expect"] {
        for pos in ident_sites(code, name) {
            let preceded_by_dot = pos > 0 && code[..pos].trim_ascii_end().ends_with(b".");
            let j = skip_ws(code, pos + name.len());
            let called = code.get(j) == Some(&b'(');
            if preceded_by_dot && called {
                ctx.push(
                    out,
                    "panic",
                    pos,
                    format!(
                        "`.{name}()` in a library path; propagate a Result \
                         through the exit triage, or \
                         `// dapc-allow(panic): reason` a provably-infallible \
                         site"
                    ),
                );
            }
        }
    }
    for pos in ident_sites(code, "panic") {
        let j = skip_ws(code, pos + "panic".len());
        if code.get(j) == Some(&b'!') {
            ctx.push(
                out,
                "panic",
                pos,
                "`panic!` in a library path; return an error through the exit \
                 triage instead"
                    .into(),
            );
        }
    }
}

/// `magic-registry`: every `b"DAPC…"` byte-string magic is declared
/// exactly once, in the central registry module; the registry itself is
/// checked for 8-byte length, `DAPC` prefix, version byte, seal
/// consistency and uniqueness (see [`check_registry`]).
fn rule_magic_registry(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if ctx.path == ctx.config.registry_path {
        check_registry(ctx, out);
        return;
    }
    for lit in &ctx.scan.strings {
        // dapc-allow(magic-registry): the linter's own prefix needle, not a format magic
        if lit.kind.is_byte_str() && lit.bytes.starts_with(b"DAPC") {
            ctx.push(
                out,
                "magic-registry",
                lit.start,
                format!(
                    "snapshot magic {:?} declared outside the registry \
                     ({}); import the constant instead",
                    String::from_utf8_lossy(&lit.bytes),
                    ctx.config.registry_path
                ),
            );
        }
    }
}

/// `dead-pub`: a `pub` item in a library crate's `src/` needs a
/// caller: another workspace file (library, binary, test, bench,
/// example or perfbench source) names its identifier, or its own file
/// does outside `#[cfg(test)]` and away from the declaration. The
/// search is by identifier, so an item that shares its name with
/// another counts as called.
fn rule_dead_pub(ctx: &FileCtx<'_>, callers: &CallerIndex, out: &mut Vec<Finding>) {
    let code = &ctx.scan.code;
    for pos in ident_sites(code, "pub") {
        let Some((kind, name)) = pub_item(code, pos + "pub".len()) else {
            continue;
        };
        // This file names the item at its declaration, so it is one of
        // the files counted.
        if callers.files_naming(&code[name.clone()]) > 1 {
            continue;
        }
        let ident = String::from_utf8_lossy(&code[name.clone()]).into_owned();
        let named_here = ident_sites(code, &ident)
            .into_iter()
            .any(|p| p != name.start && !ctx.scan.in_test(p));
        if !named_here {
            ctx.push(
                out,
                "dead-pub",
                pos,
                format!(
                    "`pub {kind} {ident}` has no caller: no other workspace file \
                     names it, and its own file only at the declaration or in \
                     tests; delete it, move it under `#[cfg(test)]`, or \
                     `// dapc-allow(dead-pub): reason` naming the item that will \
                     call it"
                ),
            );
        }
    }
}

/// The item keyword and name span of a bare `pub` declaration that
/// `dead-pub` covers, given the offset just past `pub`. Restricted
/// visibility (`pub(crate)`), `pub use`, fields and macro-generated
/// names yield `None`.
fn pub_item(code: &[u8], after: usize) -> Option<(&'static str, Range<usize>)> {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let mut word = next_word(code, after)?;
    loop {
        let next = next_word(code, word.end);
        let next_is = |w: &[&[u8]]| next.as_ref().is_some_and(|n| w.contains(&&code[n.clone()]));
        match &code[word.clone()] {
            b"unsafe" | b"async" | b"extern" => {}
            b"const" if next_is(&[b"fn", b"unsafe", b"async", b"extern"]) => {}
            b"static" if next_is(&[b"mut"]) => {
                return Some(("static", next_word(code, next?.end)?));
            }
            w => {
                let kind = KINDS.into_iter().find(|k| k.as_bytes() == w)?;
                return Some((kind, next?));
            }
        }
        word = next?;
    }
}

/// The identifier starting at the first non-whitespace byte from `i`.
fn next_word(code: &[u8], i: usize) -> Option<Range<usize>> {
    let start = skip_ws(code, i);
    let first = *code.get(start)?;
    if !(first.is_ascii_alphabetic() || first == b'_') {
        return None;
    }
    let mut end = start;
    while end < code.len() && is_ident_byte(code[end]) {
        end += 1;
    }
    Some(start..end)
}

/// Registry-module consistency: every magic is 8 bytes, `DAPC`-prefixed
/// with a known version byte, unique (both the full magic and the
/// 3-byte format tag), and its declared `sealed:` flag matches the
/// format-version convention (`\x02`+ formats carry an FNV seal, `\x01`
/// formats do not).
pub fn check_registry(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let magics: Vec<_> = ctx
        .scan
        .strings
        .iter()
        // dapc-allow(magic-registry): the linter's own prefix needle, not a format magic
        .filter(|l| l.kind.is_byte_str() && l.bytes.starts_with(b"DAPC"))
        .collect();
    if magics.is_empty() {
        out.push(Finding {
            file: ctx.path.to_string(),
            line: 1,
            rule: "magic-registry",
            message: "registry module declares no `b\"DAPC…\"` magics".into(),
        });
        return;
    }
    let mut seen: Vec<&[u8]> = Vec::new();
    let mut seen_tags: Vec<&[u8]> = Vec::new();
    for (idx, lit) in magics.iter().enumerate() {
        let m = &lit.bytes;
        let display = String::from_utf8_lossy(m).into_owned();
        if m.len() != 8 {
            ctx.push(
                out,
                "magic-registry",
                lit.start,
                format!("magic {display:?} is {} bytes, want 8", m.len()),
            );
            continue;
        }
        let version = m[7];
        if !(1..=2).contains(&version) {
            ctx.push(
                out,
                "magic-registry",
                lit.start,
                format!("magic {display:?} has version byte {version:#04x}, want 0x01/0x02"),
            );
        }
        if seen.contains(&m.as_slice()) {
            ctx.push(
                out,
                "magic-registry",
                lit.start,
                format!("magic {display:?} declared twice in the registry"),
            );
        }
        let tag = &m[4..7];
        if seen_tags.contains(&tag) {
            ctx.push(
                out,
                "magic-registry",
                lit.start,
                format!(
                    "format tag {:?} reused by two registry entries",
                    String::from_utf8_lossy(tag)
                ),
            );
        }
        seen.push(m.as_slice());
        seen_tags.push(tag);

        // Seal consistency: between this literal and the next one the
        // entry must declare `sealed: true` iff the version is >= 2.
        // Relies on the registry's documented field order (bytes before
        // sealed), which the registry module pins with a comment.
        let entry_end = magics
            .get(idx + 1)
            .map(|next| next.start)
            .unwrap_or(ctx.scan.code.len());
        let entry_code = &ctx.scan.code[lit.end..entry_end];
        let declared_sealed = find_sub(entry_code, b"sealed: true", 0).is_some();
        let declared_unsealed = find_sub(entry_code, b"sealed: false", 0).is_some();
        let want_sealed = version >= 2;
        if !(declared_sealed || declared_unsealed) {
            ctx.push(
                out,
                "magic-registry",
                lit.start,
                format!("magic {display:?} entry declares no `sealed:` flag"),
            );
        } else if declared_sealed != want_sealed {
            ctx.push(
                out,
                "magic-registry",
                lit.start,
                format!(
                    "magic {display:?} (version {version:#04x}) declares `sealed: {}`, \
                     but `\\x02`+ formats carry an FNV seal and `\\x01` formats do not",
                    declared_sealed
                ),
            );
        }
    }
}
