//! Central registry of every persisted snapshot format's magic bytes.
//!
//! Every binary format the workspace writes to disk or the wire opens
//! with the same shape of prefix: seven identifying bytes
//! (`DAPC` + a three-letter format tag) and a format version byte.
//! Version `\x01` formats end with their last field; version `\x02`+
//! formats append a 16-byte FNV-1a-128 seal over every preceding byte
//! (`dapc_runtime::snap`), so bit flips and truncation fail loudly.
//!
//! This module is the *only* place a `b"DAPC…"` literal may appear in
//! library code — the `magic-registry` rule of `dapc-analyze` enforces
//! single declaration, 8-byte length, `DAPC` prefix, version-byte
//! range, tag uniqueness and seal-flag consistency, and the
//! `registry_is_consistent` unit test re-checks the table at runtime.
//! Loaders and writers import these constants; a new format starts by
//! adding its entry here.
//!
//! Field-order convention (the analyzer's lexical seal check relies on
//! it): each entry writes `bytes` first, then `sealed`, then `name`.

/// One registered snapshot format: its 8-byte magic (7 identifying
/// bytes + 1 version byte), whether the format carries a trailing
/// FNV-1a-128 whole-payload seal, and a human-readable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Magic {
    /// The full 8-byte prefix, version byte included.
    pub bytes: &'static [u8; 8],
    /// Whether the payload ends with a 16-byte FNV-1a-128 seal. By
    /// convention true exactly for version `\x02`+ formats.
    pub sealed: bool,
    /// Short human-readable format name for error messages and docs.
    pub name: &'static str,
}

impl Magic {
    /// The format version byte (the magic's last byte).
    pub const fn version(&self) -> u8 {
        self.bytes[7]
    }

    /// The three-letter format tag between the `DAPC` prefix and the
    /// version byte.
    pub fn tag(&self) -> &'static [u8] {
        &self.bytes[4..7]
    }
}

/// `dapc_runtime::BatchAggregator` canonical binary snapshot.
pub const AGGREGATOR: Magic = Magic {
    bytes: b"DAPCAGG\x01",
    sealed: false,
    name: "batch-aggregator snapshot",
};

/// `dapc_runtime::PartReport` checkpoint (contiguous job range).
pub const PART: Magic = Magic {
    bytes: b"DAPCPRT\x02",
    sealed: true,
    name: "part-report checkpoint",
};

/// `dapc_serve::CorpusSpec` declarative sweep description.
pub const SPEC: Magic = Magic {
    bytes: b"DAPCSPC\x01",
    sealed: false,
    name: "corpus-spec bytes",
};

/// `dapc_serve` sweep-directory `manifest.bin`.
pub const MANIFEST: Magic = Magic {
    bytes: b"DAPCMAN\x02",
    sealed: true,
    name: "sweep manifest",
};

/// Every registered format, for the consistency test and for tooling
/// that wants to recognise any workspace snapshot.
pub const ALL: [&Magic; 4] = [&AGGREGATOR, &PART, &SPEC, &MANIFEST];

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry invariants the `magic-registry` analyzer rule
    /// checks lexically, re-checked on the real table: `DAPC` prefix,
    /// known version byte, version/seal consistency, and uniqueness of
    /// both the full magic and the three-letter tag.
    #[test]
    fn registry_is_consistent() {
        let mut seen_magic = std::collections::BTreeSet::new();
        let mut seen_tag = std::collections::BTreeSet::new();
        for m in ALL {
            assert!(
                m.bytes.starts_with(b"DAPC"),
                "{} magic lacks the DAPC prefix",
                m.name
            );
            assert!(
                (1..=2).contains(&m.version()),
                "{} has unknown version byte {:#04x}",
                m.name,
                m.version()
            );
            assert_eq!(
                m.sealed,
                m.version() >= 2,
                "{}: seal presence must match the version convention",
                m.name
            );
            assert!(
                seen_magic.insert(m.bytes),
                "duplicate magic {:?} ({})",
                m.bytes,
                m.name
            );
            assert!(
                seen_tag.insert(m.tag()),
                "duplicate format tag {:?} ({})",
                String::from_utf8_lossy(m.tag()),
                m.name
            );
        }
        assert_eq!(ALL.len(), 4, "keep the table in sync with the formats");
    }
}
