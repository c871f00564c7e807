//! Process exit codes of the orchestration binaries.
//!
//! A coordinator supervising worker processes sees nothing but an exit
//! status, so the status has to carry the triage: *retry this worker*
//! (transient I/O, a crash, a straggler we killed) versus *stop the
//! sweep* (the input itself is bad and every retry would fail the same
//! way). `dapc-serve` and `tables` exit with these codes.

use std::io;

/// Success.
pub const EXIT_OK: i32 = 0;
/// Bad command line or spec tokens — retrying cannot help.
pub const EXIT_USAGE: i32 = 2;
/// A transient I/O failure (filesystem, pipe, socket) — retryable.
pub const EXIT_IO: i32 = 3;
/// A snapshot, checkpoint or spec file failed to parse — the input is
/// corrupt, so retrying against the same file cannot help.
pub const EXIT_BAD_SNAPSHOT: i32 = 4;
/// A solve panicked. Solves are deterministic in their job key, so a
/// retry would panic identically — not retryable.
pub const EXIT_SOLVE_PANIC: i32 = 5;

/// Maps an `io::Error` from loading or emitting snapshots to the exit
/// code a worker should die with: parse failures ([`io::ErrorKind::InvalidData`],
/// and [`io::ErrorKind::UnexpectedEof`] — truncation *is* corruption in
/// the all-or-nothing snapshot discipline) are [`EXIT_BAD_SNAPSHOT`];
/// everything else is transient [`EXIT_IO`].
pub fn classify(err: &io::Error) -> i32 {
    match err.kind() {
        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => EXIT_BAD_SNAPSHOT,
        _ => EXIT_IO,
    }
}

/// Whether a worker that died with `code` is worth respawning: signal
/// deaths (`None` — a crash or an injected kill) and transient I/O are;
/// deterministic failures (usage, corrupt input, a panicking solve) are
/// not.
pub fn is_retryable(code: Option<i32>) -> bool {
    match code {
        None => true,
        Some(EXIT_IO) => true,
        Some(EXIT_OK) | Some(EXIT_USAGE) | Some(EXIT_BAD_SNAPSHOT) | Some(EXIT_SOLVE_PANIC) => {
            false
        }
        // Unknown codes (e.g. the OS's own 101 on an uncaught panic in a
        // worker that never reached main's mapping) get one benefit of
        // the doubt; the attempt cap bounds the damage.
        Some(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_parse_failures_map_to_bad_snapshot() {
        for kind in [io::ErrorKind::InvalidData, io::ErrorKind::UnexpectedEof] {
            assert_eq!(classify(&io::Error::new(kind, "boom")), EXIT_BAD_SNAPSHOT);
        }
    }

    #[test]
    fn transient_io_maps_to_io() {
        for kind in [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::Other,
        ] {
            assert_eq!(classify(&io::Error::new(kind, "boom")), EXIT_IO);
        }
    }

    #[test]
    fn retry_policy_matches_determinism() {
        assert!(is_retryable(None), "signal death is retryable");
        assert!(is_retryable(Some(EXIT_IO)));
        assert!(is_retryable(Some(101)), "unknown codes get one chance");
        assert!(!is_retryable(Some(EXIT_OK)));
        assert!(!is_retryable(Some(EXIT_USAGE)));
        assert!(!is_retryable(Some(EXIT_BAD_SNAPSHOT)));
        assert!(!is_retryable(Some(EXIT_SOLVE_PANIC)));
    }

    #[test]
    fn codes_are_distinct() {
        let codes = [
            EXIT_OK,
            EXIT_USAGE,
            EXIT_IO,
            EXIT_BAD_SNAPSHOT,
            EXIT_SOLVE_PANIC,
        ];
        for (i, a) in codes.iter().enumerate() {
            for b in &codes[..i] {
                assert_ne!(a, b);
            }
        }
    }
}
