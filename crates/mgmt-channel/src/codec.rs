//! Byte-level reader/writer helpers for the binary wire codec.
//!
//! The management channel moves opaque payload bytes; historically every
//! payload was a vendored-JSON document.  The batched-transaction hot path
//! (StageBatch / CommitBatch and friends) now supports a compact binary
//! framing built from the primitives in this module: fixed-width
//! little-endian integers and `u32`-length-prefixed byte slices.  The codec
//! is deliberately boring — no compression, no varints — so the agent can
//! validate length-prefixed segment slices *in place* without first
//! materialising a message tree.
//!
//! Binary payloads are distinguished from JSON by their first byte: every
//! binary message starts with a magic tag in `0x81..=0x86`, while a JSON
//! document always starts with `{` (`0x7B`).  The tags themselves are owned
//! by `conman-core`'s `wire` module; this module only fixes their values so
//! the channel layer can recognise (and count) binary frames without
//! depending on the message schema.
//!
//! The same primitives encode what protocol modules say to each other: each
//! module writes its own messages (a tag byte of its own, then the fields)
//! into the opaque body the NM relays unread.

/// Magic first byte of a binary `StageBatch` payload.
pub const TAG_STAGE_BATCH: u8 = 0x81;
/// Magic first byte of a binary `StageBatchResult` payload.
pub const TAG_STAGE_BATCH_RESULT: u8 = 0x82;
/// Magic first byte of a binary `CommitBatch` payload.
pub const TAG_COMMIT_BATCH: u8 = 0x83;
/// Magic first byte of a binary `CommitBatchResult` payload.
pub const TAG_COMMIT_BATCH_RESULT: u8 = 0x84;
/// Magic first byte of a binary `AbortBatch` payload.
pub const TAG_ABORT_BATCH: u8 = 0x85;
/// Magic first byte of a binary `RelayBatch` payload.
pub const TAG_RELAY_BATCH: u8 = 0x86;

/// Does this payload start with one of the binary magic tags?  JSON payloads
/// start with `{` (0x7B), so the first byte alone separates the codecs.
pub fn is_binary(payload: &[u8]) -> bool {
    payload
        .first()
        .is_some_and(|b| (TAG_STAGE_BATCH..=TAG_RELAY_BATCH).contains(b))
}

/// An append-only byte writer for the binary codec: fixed-width
/// little-endian integers and `u32`-length-prefixed slices.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Start a payload with its magic tag byte.
    pub fn with_tag(tag: u8) -> Self {
        Writer { buf: vec![tag] }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a boolean as one byte, `0` or `1`.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`-length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Current length of the payload so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the payload empty (it never is once a tag was written)?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Patch a previously written little-endian `u32` at `at` (used for
    /// back-filling a length prefix once the content size is known).
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Finish and take the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A checked, `Option`-returning reader over a binary payload (or a slice of
/// one).  Every accessor returns `None` instead of panicking on truncated
/// input, so malformed payloads are rejected exactly like malformed JSON.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Has every byte been consumed?
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    /// Read a boolean byte; anything but `0` or `1` is malformed.
    pub fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    /// Read a little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        let bytes = self.buf.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Read a `u32`-length-prefixed byte slice, borrowed from the payload.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        let v = self.buf.get(self.pos..self.pos + len)?;
        self.pos += len;
        Some(v)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<&'a str> {
        std::str::from_utf8(self.bytes()?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_slices() {
        let mut w = Writer::with_tag(TAG_STAGE_BATCH);
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        let buf = w.finish();
        assert!(is_binary(&buf));

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(TAG_STAGE_BATCH));
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.str(), Some("hello"));
        assert_eq!(r.bytes(), Some(&[1u8, 2, 3][..]));
        assert!(r.is_exhausted());
        assert_eq!(r.u8(), None, "reads past the end fail cleanly");
    }

    #[test]
    fn truncated_input_is_rejected_not_panicked_on() {
        let mut w = Writer::default();
        w.put_str("truncate me");
        let buf = w.finish();
        let mut r = Reader::new(&buf[..buf.len() - 1]);
        assert_eq!(r.str(), None);
        assert_eq!(Reader::new(&[2]).bool(), None, "a boolean is 0 or 1");
        assert_eq!(Reader::new(&[1]).u16(), None);
    }

    #[test]
    fn length_prefix_backpatching() {
        let mut w = Writer::default();
        let at = w.len();
        w.put_u32(0); // placeholder
        w.put_str("abc");
        let body = w.len() - at - 4;
        w.patch_u32(at, body as u32);
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32(), Some(body as u32));
    }

    #[test]
    fn json_is_never_mistaken_for_binary() {
        assert!(!is_binary(b"{\"x\":1}"));
        assert!(!is_binary(b""));
        assert!(!is_binary(b"not json"));
        for tag in [
            TAG_STAGE_BATCH,
            TAG_STAGE_BATCH_RESULT,
            TAG_COMMIT_BATCH,
            TAG_COMMIT_BATCH_RESULT,
            TAG_ABORT_BATCH,
            TAG_RELAY_BATCH,
        ] {
            assert!(is_binary(&[tag]));
        }
    }
}
