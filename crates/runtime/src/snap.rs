//! Primitive readers/writers shared by the workspace's versioned binary
//! snapshot formats ([`crate::PartReport`] and `dapc-serve`'s spec and
//! manifest): little-endian integers,
//! length-prefixed UTF-8 strings, and the magic/version check split so
//! corrupt and future-versioned streams fail with distinct errors.
//!
//! Two rules every reader here obeys:
//!
//! 1. **No length field is trusted with an allocation.** Variable-length
//!    payloads are read through `Read::take`, so memory grows with the
//!    bytes actually present and a corrupt length surfaces as
//!    [`std::io::ErrorKind::UnexpectedEof`] instead of an abort.
//! 2. **Truncation at any field boundary is an `Err`** — the higher-level
//!    loaders parse a full snapshot into fresh values before mutating
//!    anything, so a failed load never half-applies.

use dapc_ilp::hash::{fnv1a_128, FNV128_OFFSET};
use std::io::{self, Read, Write};

/// An [`std::io::ErrorKind::InvalidData`] error with `msg`.
pub fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes a little-endian `u64`.
pub fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `u64`.
pub fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a little-endian `u128`.
pub fn write_u128<W: Write>(w: &mut W, v: u128) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a little-endian `u128`.
pub fn read_u128<R: Read>(r: &mut R) -> io::Result<u128> {
    let mut buf = [0u8; 16];
    r.read_exact(&mut buf)?;
    Ok(u128::from_le_bytes(buf))
}

/// Reads one byte.
pub fn read_u8<R: Read>(r: &mut R) -> io::Result<u8> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0])
}

/// Writes a bool as one `0`/`1` byte.
pub fn write_bool<W: Write>(w: &mut W, v: bool) -> io::Result<()> {
    w.write_all(&[u8::from(v)])
}

/// Reads a `0`/`1` byte; anything else is `InvalidData` naming `what`.
pub fn read_bool<R: Read>(r: &mut R, what: &str) -> io::Result<bool> {
    match read_u8(r)? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(invalid(format!("bad {what} flag {b}"))),
    }
}

/// Writes `bytes` as `len: u64` followed by the raw bytes.
pub fn write_bytes<W: Write>(w: &mut W, bytes: &[u8]) -> io::Result<()> {
    write_u64(w, bytes.len() as u64)?;
    w.write_all(bytes)
}

/// Reads a length-prefixed byte block, allocating only in proportion to
/// the bytes actually present.
pub fn read_bytes<R: Read>(r: &mut R, what: &str) -> io::Result<Vec<u8>> {
    let len = read_u64(r)?;
    let mut bytes = Vec::new();
    r.take(len).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("truncated {what}: {} of {len} bytes", bytes.len()),
        ));
    }
    Ok(bytes)
}

/// Writes a string as a length-prefixed UTF-8 byte block.
pub fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    write_bytes(w, s.as_bytes())
}

/// Reads a length-prefixed UTF-8 string (alloc bounded by real bytes).
pub fn read_str<R: Read>(r: &mut R, what: &str) -> io::Result<String> {
    let bytes = read_bytes(r, what)?;
    String::from_utf8(bytes).map_err(|_| invalid(format!("{what} is not UTF-8")))
}

/// Appends the 16-byte FNV-1a-128 seal over everything currently in
/// `buf`. Sealed formats serialise all fields into a buffer first, call
/// this last, and write the buffer in one shot; loaders parse the
/// fields through a [`SealingReader`] and call
/// [`SealingReader::verify_seal`] once every field is in. Any bit flip
/// or truncation anywhere under the seal is then guaranteed to surface
/// as an `Err` — a snapshot can fail to load, but never half-load or
/// load wrong.
pub fn seal(buf: &mut Vec<u8>) {
    let digest = fnv1a_128(FNV128_OFFSET, buf);
    buf.extend_from_slice(&digest.to_le_bytes());
}

/// A reader that folds every byte it passes through into a running
/// FNV-1a-128 digest, so a loader can parse a sealed snapshot's fields
/// normally and then check the trailing seal against exactly the bytes
/// it consumed. Field-level validation errors fire first (they read
/// fewer bytes); the seal catches everything those checks cannot.
pub struct SealingReader<R> {
    inner: R,
    digest: u128,
}

impl<R: Read> SealingReader<R> {
    /// Starts a fresh digest over `inner`.
    pub fn new(inner: R) -> Self {
        SealingReader {
            inner,
            digest: FNV128_OFFSET,
        }
    }

    /// Reads the 16-byte seal from the underlying stream (NOT folded
    /// into the digest) and compares it with the digest of everything
    /// read so far. Call after the last sealed field and before any
    /// trailing-bytes check.
    pub fn verify_seal(&mut self, what: &str) -> io::Result<()> {
        let expect = self.digest;
        let mut buf = [0u8; 16];
        self.inner.read_exact(&mut buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("truncated {what} snapshot seal"),
                )
            } else {
                e
            }
        })?;
        if u128::from_le_bytes(buf) != expect {
            return Err(invalid(format!(
                "{what} snapshot seal mismatch (corrupt or torn file)"
            )));
        }
        Ok(())
    }
}

impl<R: Read> Read for SealingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.digest = fnv1a_128(self.digest, &buf[..n]);
        Ok(n)
    }
}

/// Checks an 8-byte `magic` prefix whose last byte is the format
/// version, failing with distinct messages for "not this format at all"
/// and "right format, unsupported version".
pub fn check_magic<R: Read>(r: &mut R, magic: &[u8; 8], what: &str) -> io::Result<()> {
    let mut got = [0u8; 8];
    r.read_exact(&mut got)?;
    if got[..7] != magic[..7] {
        return Err(invalid(format!("not a dapc {what} snapshot (bad magic)")));
    }
    if got[7] != magic[7] {
        return Err(invalid(format!(
            "unsupported {what} snapshot version {} (expected {})",
            got[7], magic[7]
        )));
    }
    Ok(())
}
