//! Byte-level reader/writer helpers for the binary wire codec.
//!
//! The management channel moves opaque payload bytes; every management
//! message is a binary frame built from the primitives in this module:
//!
//! - **Integers are unsigned LEB128 varints.**  Every `u16`, `u32` and
//!   `u64` — ids, counts, length prefixes — is written seven bits a byte,
//!   low bits first, the top bit of each byte set when another byte
//!   follows.  A value below 128 takes one byte, a `u32` at most five and a
//!   `u64` at most ten.
//! - **The reader is strict**, so a frame has exactly one byte form.
//!   [`Reader::u16`], [`Reader::u32`] and [`Reader::u64`] refuse a
//!   continuation cut short, a value wider than the type, and a
//!   non-minimal encoding (a last byte of zero after the first, such as
//!   `[0x80, 0x00]` for 0).
//! - **A byte slice or string is its length, then its bytes.**  A block
//!   whose length is only known once it is written (a `StageBatch`
//!   segment) is framed in place: [`Writer::begin_bytes`] reserves one
//!   prefix byte, and [`Writer::end_bytes`] writes the length there,
//!   shifting the block once when the length needs more bytes.  A reader
//!   still slices a length-prefixed block out of the payload without
//!   copying it.
//! - **Two kinds of value are raw bytes, not counts**: a device id (a
//!   64-bit hash of the device name, eight little-endian bytes) and an IPv4
//!   address in a module body (four bytes).  A varint would make them
//!   longer, so they go through [`Writer::put_raw`] and [`Reader::raw`] /
//!   [`Reader::raw_slice`].  A device id is raw only in its frame's device
//!   list, written once right after the tag; everywhere else in the frame
//!   a device is a varint index into that list.
//! - Tags, bools and enum variant bytes are one byte each.
//!
//! Every frame starts with one of the thirteen tags below, `0x81..=0x8D`.
//! The frame layouts are owned by `conman-core`'s `wire` module; this module
//! only fixes the tag values so the channel layer can name a frame without
//! depending on the message schema.  A payload starting with any other byte
//! is not a management message.
//!
//! The same primitives encode what protocol modules say to each other: each
//! module writes its own messages (a tag byte of its own, then the fields)
//! into the opaque body the NM relays unread.

/// Magic first byte of a `StageBatch` payload.
pub const TAG_STAGE_BATCH: u8 = 0x81;
/// Magic first byte of a `StageBatchResult` payload.
pub const TAG_STAGE_BATCH_RESULT: u8 = 0x82;
/// Magic first byte of a `CommitBatch` payload.
pub const TAG_COMMIT_BATCH: u8 = 0x83;
/// Magic first byte of a `CommitBatchResult` payload.
pub const TAG_COMMIT_BATCH_RESULT: u8 = 0x84;
/// Magic first byte of an `AbortBatch` payload.
pub const TAG_ABORT_BATCH: u8 = 0x85;
/// Magic first byte of a `RelayBatch` payload.
pub const TAG_RELAY_BATCH: u8 = 0x86;
/// Magic first byte of an `Announce` payload.
pub const TAG_ANNOUNCE: u8 = 0x87;
/// Magic first byte of a `Script` payload.
pub const TAG_SCRIPT: u8 = 0x88;
/// Magic first byte of a `ScriptResult` payload.
pub const TAG_SCRIPT_RESULT: u8 = 0x89;
/// Magic first byte of a `Module` (one relayed envelope) payload.
pub const TAG_MODULE: u8 = 0x8A;
/// Magic first byte of a `Notify` payload.
pub const TAG_NOTIFY: u8 = 0x8B;
/// Magic first byte of a `PollCounters` payload.
pub const TAG_POLL_COUNTERS: u8 = 0x8C;
/// Magic first byte of a `CounterReport` payload.
pub const TAG_COUNTER_REPORT: u8 = 0x8D;

/// The most bytes a `u64` varint takes.
const MAX_VARINT_LEN: usize = 10;

/// `v` as a varint, in the first `len` bytes of the array.
fn varint(mut v: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut bytes = [0; MAX_VARINT_LEN];
    let mut len = 0;
    while v >= 0x80 {
        bytes[len] = v as u8 | 0x80;
        v >>= 7;
        len += 1;
    }
    bytes[len] = v as u8;
    (bytes, len + 1)
}

/// An append-only byte writer for the binary codec: varint integers,
/// length-prefixed slices and raw fixed-width fields.
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

    /// Append a `u16` varint.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_u64(u64::from(v));
    }

    /// Append a `u32` varint.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(u64::from(v));
    }

    /// Append a `u64` varint.  The one-byte case is inlined into every
    /// caller; the rest takes a call.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        if v < 0x80 {
            self.buf.push(v as u8);
        } else {
            self.put_long_varint(v);
        }
    }

    /// A varint of two bytes or more.
    fn put_long_varint(&mut self, v: u64) {
        let (bytes, len) = varint(v);
        self.buf.extend_from_slice(&bytes[..len]);
    }

    /// Append fixed-width bytes with no length prefix: a field whose width
    /// the layout fixes (see [`Reader::raw`]).  Inlined, so the copy is
    /// one fixed-size store.
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Open a length-prefixed byte slice whose contents are written next:
    /// reserve one byte for its length and return where the contents start,
    /// for [`end_bytes`](Self::end_bytes).
    pub fn begin_bytes(&mut self) -> usize {
        self.buf.push(0);
        self.buf.len()
    }

    /// Close the slice opened at `start`: everything written since becomes
    /// one length-prefixed slice, the bytes [`put_bytes`](Self::put_bytes)
    /// would have written.  A length of 128 or more needs more than the
    /// reserved byte, so the contents shift right once to make room.
    pub fn end_bytes(&mut self, start: usize) {
        let len = self.buf.len() - start;
        let (prefix, width) = varint(len as u64);
        let grow = width - 1;
        if grow > 0 {
            self.buf.resize(self.buf.len() + grow, 0);
            self.buf.copy_within(start..start + len, start + grow);
        }
        self.buf[start - 1..start + grow].copy_from_slice(&prefix[..width]);
    }

    /// Finish and take the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// A checked, `Option`-returning reader over a binary payload (or a slice of
/// one).  Every accessor returns `None` instead of panicking on truncated
/// or malformed input, so a malformed payload is rejected, never read past
/// its end.
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

    /// Read a varint of at most `bits` bits: `None` for a continuation cut
    /// short, a value wider than `bits`, or a non-minimal encoding.  The
    /// one-byte case is inlined into every caller; the rest takes a call.
    #[inline]
    fn varint(&mut self, bits: u32) -> Option<u64> {
        let first = *self.buf.get(self.pos)?;
        if first < 0x80 {
            self.pos += 1;
            Some(u64::from(first))
        } else {
            self.long_varint(first, bits)
        }
    }

    /// The rest of a varint whose first byte, `first`, has its
    /// continuation bit set.
    fn long_varint(&mut self, first: u8, bits: u32) -> Option<u64> {
        let mut value = u64::from(first & 0x7F);
        let mut at = self.pos + 1;
        let mut shift = 7;
        loop {
            let byte = *self.buf.get(at)?;
            at += 1;
            let part = u64::from(byte & 0x7F);
            if shift >= bits || part >> (bits - shift) != 0 {
                return None; // wider than the type
            }
            value |= part << shift;
            if byte < 0x80 {
                if byte == 0 {
                    return None; // a shorter form exists
                }
                self.pos = at;
                return Some(value);
            }
            shift += 7;
        }
    }

    /// Read a `u16` varint.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.varint(16).map(|v| v as u16)
    }

    /// Read a `u32` varint.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.varint(32).map(|v| v as u32)
    }

    /// Read a `u64` varint.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.varint(64)
    }

    /// Read `N` raw bytes, what [`Writer::put_raw`] wrote for a field `N`
    /// bytes wide.
    pub fn raw<const N: usize>(&mut self) -> Option<[u8; N]> {
        let bytes = self.buf.get(self.pos..self.pos + N)?;
        self.pos += N;
        bytes.try_into().ok()
    }

    /// Read `len` raw bytes, borrowed from the payload: a run of
    /// fixed-width fields whose number the frame gave before them.
    pub fn raw_slice(&mut self, len: usize) -> Option<&'a [u8]> {
        let v = self.buf.get(self.pos..self.pos.checked_add(len)?)?;
        self.pos += len;
        Some(v)
    }

    /// Read a length-prefixed byte slice, borrowed from the payload.
    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.raw_slice(len)
    }

    /// Read a length-prefixed UTF-8 string.
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
        w.put_raw(&[9, 8, 7, 6]);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        let buf = w.finish();

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Some(TAG_STAGE_BATCH));
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.bool(), Some(true));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.raw::<4>(), Some([9, 8, 7, 6]));
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
        assert_eq!(Reader::new(&[0x81]).u16(), None);
        assert_eq!(Reader::new(&[1, 2, 3]).raw::<4>(), None);
    }

    /// Each boundary value takes the bytes its bit width calls for, and
    /// reads back as itself at every type wide enough to hold it.
    #[test]
    fn boundary_values_round_trip_at_their_lengths() {
        for (v, len) in [
            (0, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (u64::from(u16::MAX), 3),
            (u64::from(u32::MAX), 5),
            ((1 << 56) - 1, 8),
            (1 << 56, 9),
            (u64::MAX, 10),
        ] {
            let mut w = Writer::default();
            w.put_u64(v);
            let buf = w.finish();
            assert_eq!(buf.len(), len, "{v}");
            assert_eq!(Reader::new(&buf).u64(), Some(v), "{v} as u64");
            if let Ok(v32) = u32::try_from(v) {
                let mut w = Writer::default();
                w.put_u32(v32);
                assert_eq!(w.finish(), buf, "{v} as u32 writes the same bytes");
                assert_eq!(Reader::new(&buf).u32(), Some(v32), "{v} as u32");
            }
            if let Ok(v16) = u16::try_from(v) {
                let mut w = Writer::default();
                w.put_u16(v16);
                assert_eq!(w.finish(), buf, "{v} as u16 writes the same bytes");
                assert_eq!(Reader::new(&buf).u16(), Some(v16), "{v} as u16");
            }
        }
    }

    /// The reader accepts one byte form per value: no padding, nothing
    /// wider than the type, no continuation left dangling.
    #[test]
    fn the_reader_refuses_every_other_byte_form() {
        // Non-minimal: 0 and 1 padded with a zero continuation.
        assert_eq!(Reader::new(&[0x80, 0x00]).u64(), None);
        assert_eq!(Reader::new(&[0x81, 0x80, 0x00]).u32(), None);
        // 65 536 is one past a u16, though a u32 holds it.
        let wide = [0x80, 0x80, 0x04];
        assert_eq!(Reader::new(&wide).u16(), None);
        assert_eq!(Reader::new(&wide).u32(), Some(65_536));
        // A u32's fifth byte carries four bits; 0x10 is a 33rd.
        assert_eq!(
            Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]).u32(),
            Some(u32::MAX)
        );
        assert_eq!(Reader::new(&[0xFF, 0xFF, 0xFF, 0xFF, 0x10]).u32(), None);
        assert_eq!(
            Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]).u32(),
            None
        );
        // A u64's tenth byte carries one bit.
        let mut top = [0xFF; 10];
        top[9] = 0x01;
        assert_eq!(Reader::new(&top).u64(), Some(u64::MAX));
        top[9] = 0x02;
        assert_eq!(Reader::new(&top).u64(), None);
        // A continuation with nothing after it.
        assert_eq!(Reader::new(&[0xFF]).u64(), None);
        assert_eq!(Reader::new(&[0x80, 0x80]).u32(), None);
        // A refused read consumes nothing.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert_eq!(r.u32(), None);
        assert_eq!(r.remaining(), 2);
    }

    /// A block framed in place writes what `put_bytes` writes, whether its
    /// length prefix takes one, two or three bytes.
    #[test]
    fn an_in_place_block_matches_put_bytes_at_every_prefix_width() {
        for len in [0, 127, 128, 16_383, 16_384] {
            let block: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut framed = Writer::with_tag(TAG_STAGE_BATCH);
            let start = framed.begin_bytes();
            framed.put_raw(&block);
            framed.end_bytes(start);
            framed.put_u8(0xEE);
            let mut copied = Writer::with_tag(TAG_STAGE_BATCH);
            copied.put_bytes(&block);
            copied.put_u8(0xEE);
            let framed = framed.finish();
            assert_eq!(framed, copied.finish(), "block of {len}");
            let mut r = Reader::new(&framed[1..]);
            assert_eq!(r.bytes(), Some(&block[..]));
            assert_eq!(r.u8(), Some(0xEE));
        }
    }
}
