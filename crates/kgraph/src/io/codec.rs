//! Low-level little-endian encoding shared by the deployment layout's
//! snapshot files and write-ahead logs ([`super::shard`], [`super::wal`]).
//!
//! Everything is explicit little-endian via `to_le_bytes`/`from_le_bytes`,
//! so files are portable across hosts. Integrity is a 64-bit FNV-style
//! checksum per section/record — cheap, dependency-free, and plenty to
//! detect torn writes and bit rot (this is corruption *detection* for
//! trusted local files, not an adversarial MAC).

/// 64-bit FNV-1a over little-endian 8-byte *words* (zero-padded tail, the
/// input length mixed into the seed). Word-striding keeps the checksum off
/// the cold-start critical path — byte-at-a-time FNV costs milliseconds on
/// multi-megabyte CSR sections, ~8× more than this.
pub fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk")); // lint-ok(panic-freedom): chunks_exact(8) yields exactly 8-byte chunks
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Appends a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (`u32` length + bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over a byte buffer; every decode failure is a
/// `String` detail the caller wraps with path/format context.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes `n` raw bytes; `what` labels truncation errors.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated: need {n} bytes for {what}, {} left at offset {}",
                self.remaining(),
                self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4-byte slice"), // lint-ok(panic-freedom): take(4, ..) returned exactly 4 bytes or errored above
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8-byte slice"), // lint-ok(panic-freedom): take(8, ..) returned exactly 8 bytes or errored above
        ))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|e| format!("{what}: invalid utf-8: {e}"))
    }

    /// Reads a `u32` count followed by that many little-endian `u32`s.
    ///
    /// The byte length is computed with `checked_mul`: a hostile or corrupt
    /// count cannot wrap `usize` on 32-bit targets into a small in-bounds
    /// read (or panic in debug builds) — it fails as a decode error, and
    /// [`Cursor::take`] bounds the read itself, so no allocation larger
    /// than the buffer ever happens.
    pub fn u32_array(&mut self, what: &str) -> Result<Vec<u32>, String> {
        let n = self.u32(what)? as usize;
        let byte_len = n
            .checked_mul(4)
            .ok_or_else(|| format!("corrupt length for {what}: {n} u32s overflows usize"))?;
        let bytes = self.take(byte_len, what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk"))) // lint-ok(panic-freedom): chunks_exact(4) yields exactly 4-byte chunks
            .collect())
    }
}

/// Appends a `u32` count followed by the raw array, little-endian.
pub fn put_u32_array(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u32>) {
    put_u32(out, vals.len() as u32);
    for v in vals {
        put_u32(out, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_sensitive() {
        assert_eq!(checksum64(b"foobar"), checksum64(b"foobar"));
        // Single-bit flips, transpositions, length changes all move it.
        assert_ne!(checksum64(b"foobar"), checksum64(b"foobaR"));
        assert_ne!(checksum64(b"foobar"), checksum64(b"foobra"));
        assert_ne!(checksum64(b"foobar"), checksum64(b"foobar\0"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
        // Word boundaries: 8-byte-aligned and ragged tails both covered.
        assert_ne!(checksum64(b"12345678"), checksum64(b"123456789"));
        assert_ne!(checksum64(b"12345678"), checksum64(b"12345679"));
    }

    #[test]
    fn cursor_roundtrip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "Audi_TT");
        put_u32_array(&mut buf, [1u32, 2, 3].into_iter());
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32("a").unwrap(), 7);
        assert_eq!(c.u64("b").unwrap(), u64::MAX - 1);
        assert_eq!(c.str("c").unwrap(), "Audi_TT");
        assert_eq!(c.u32_array("d").unwrap(), vec![1, 2, 3]);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn cursor_reports_truncation_with_context() {
        let mut c = Cursor::new(&[1, 2]);
        let err = c.u32("epoch").unwrap_err();
        assert!(err.contains("epoch"), "{err}");
        assert!(err.contains("truncated"), "{err}");
    }

    #[test]
    fn u32_array_with_hostile_count_fails_cleanly() {
        // A length prefix of u32::MAX (satellite regression: the unchecked
        // `n * 4` used to wrap `usize` on 32-bit targets) must surface as a
        // clean decode error — truncation on 64-bit hosts, checked_mul
        // overflow where usize is 32-bit — never a wrapped multiply that
        // reads a short slice, and never a panic or huge allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        buf.extend_from_slice(&[0u8; 16]);
        let err = Cursor::new(&buf).u32_array("hostile").unwrap_err();
        assert!(err.contains("hostile"), "{err}");
        // The same guard on every u32 count the codec can hand back.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX - 3);
        let err = Cursor::new(&buf).u32_array("edge ids").unwrap_err();
        assert!(err.contains("edge ids"), "{err}");
    }

    #[test]
    fn cursor_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let err = Cursor::new(&buf).str("label").unwrap_err();
        assert!(err.contains("utf-8"), "{err}");
    }
}
