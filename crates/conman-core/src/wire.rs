//! The management channel's one wire codec: every [`WireMessage`] is a
//! binary frame, a tag byte (`mgmt_channel::codec::TAG_*`) followed by the
//! message's fields.  There is no second codec and nothing sniffs: a payload
//! whose first byte is not one of the thirteen tags (a JSON document starts
//! with `{`) does not decode, and the runtime drops it and counts it under
//! `mgmt.decode_dropped`.  Neither does a frame with bytes left over.  The
//! codec never interprets a module-to-module envelope's body: it is bytes
//! the sending module encoded and only the receiving module decodes.
//!
//! A field has one layout wherever it appears (`mgmt_channel::codec`'s
//! module docs define the varint and its strict reader):
//!
//! ```text
//! u32, u64     unsigned LEB128 varint, minimal, at most 5 / 10 bytes
//!              (a length in a ModuleError travels as u64)
//! bool         one byte, 0 or 1
//! str, bytes   varint length, then the UTF-8 / raw bytes
//! list X       varint count, then each X; a map is a list of (key, value),
//!              keys strictly ascending
//! opt X        presence byte 0 | 1, then X when it is 1
//! (A, B)       A then B; a struct is its fields in declaration order
//! enum         variant byte (as listed in `enums!`; a retired one is not reused), fields
//! ids          pipe, module, port and link u32 varint; device u32 varint, the
//!              device's index in the frame's device list
//! devices      varint count, then each device id as 8 raw bytes, little-endian
//!              (a name hash, not a count): every device the frame names, once,
//!              in the order the frame first names it
//! module       kind (0-4 ETH IP GRE MPLS VLAN | 5 App + code byte), u32 module, device
//! ```
//!
//! Every frame is its tag, its device list, then its fields; the thirteen
//! frames' fields:
//!
//! ```text
//! 0x81 StageBatch        u64 txn, list (u64 goal, bytes block, u32 window);
//!                        block = list primitive
//! 0x82 StageBatchResult  u64 txn, list (u64 goal, list refusal)
//! 0x83 CommitBatch       u64 txn, list u64 goal
//! 0x84 CommitBatchResult u64 txn, list (u64 goal, list outcome)
//! 0x85 AbortBatch        u64 txn, list u64 goal
//! 0x86 RelayBatch        list envelope
//! 0x87 Announce          device, str name, list (u32 port, device, u32 port)
//! 0x88 Script            u64 request, list primitive
//! 0x89 ScriptResult      u64 request, list outcome
//! 0x8A Module            envelope
//! 0x8B Notify            module, notice
//! 0x8C PollCounters      u64 request, list u64 tag
//! 0x8D CounterReport     u64 request, list (module, list (drop reason, u64)),
//!                        list (u64 tag, u64 originated, forwarded, local_delivered, drops)
//! ```
//!
//! and what they carry:
//!
//! ```text
//! primitive   0 showPotential | 1 showActual
//!             | 2 create pipe: u32 pipe, module upper, lower, opt peer_upper,
//!                 opt peer_lower, opt u32 peer_pipe, list tradeoff, bool initiate
//!             | 3 create switch: module, u32 in, u32 out, opt (str name, str value)
//!                 dst_class, opt (str name, str value) gateway, opt str local_prefix
//!             | 4 create filter: module, from, to
//!             | 5 delete: component
//! component   0 u32 pipe | 1 module, u32 in, u32 out | 2 module, from, to
//! envelope    module from, module to, u32 pipe (the receiver's), kind (0 convey
//!             | 1 field query | 2 field response), bytes body
//! outcome     0 result | 1 refusal
//! result      0 list abstraction | 1 list (module, actual) | 2 u32 pipe created | 3 done
//! actual      list u32 pipe, list (u32, u32) switch rule, list (module, module) filter
//! refusal     device, opt component, cause
//! cause       0 unknown module: module | 1 module error | 2 malformed segment
//!             | 3 never staged | 4 unanswered stage | 5 unanswered commit
//! module err  0 cannot filter | 1 missing tradeoffs | 2 undecodable body: module, u64 len
//!             | 5 bad switch field: field byte | 6 filter in use | 7 unresolved filter end: module
//! notice      0 established | 1 refused: refusal | 2 poll round cap
//! abstraction module name, list kind up_connectable, list dependency, list kind
//!             down_connectable, list dependency, list (u32 port, opt u32 link, bool
//!             broadcast), list kind peerable, list classifier, (list switch kind, bool
//!             multicast, state source, bool transparent_down_down), list str
//!             perf_reporting, list (list metric costs, list metric improves, str
//!             applies_to), list str perf_enforcement, (bool integrity, authenticity,
//!             confidentiality, opt dependency), opt str address_domain, bool
//!             fast_forwarding
//! dependency  str id, str description
//! ```
//!
//! A frame names a device by its index in the list, so a device's eight
//! bytes travel once however many module refs name it: a segment sent to a
//! device names that device in nearly every primitive.  The reader keeps
//! one byte form per frame: it refuses a device listed twice, a listed
//! device that nothing names, an index past the list, and an index that
//! skips a device not named yet (the list is in first-use order).
//!
//! The `StageBatch` frame length-prefixes every goal segment, so the
//! receiving agent can walk borrowed segment slices and validate primitives
//! *as they decode* ([`StageBatchView`]) instead of materialising the whole
//! message first.  So that a segment still decodes, and fails, on its own,
//! each segment states after its block its *window*: how many devices it
//! names first.  The windows follow each other through the list, and
//! [`StageBatchView::parse`] refuses a frame whose windows do not add up
//! to the list.  A segment may name any device of the windows before its
//! own, and must name its own window's devices in order, every one of them.
//! The encoder frames each segment in place: it reserves one byte for the
//! length, writes the block after it and shifts the block once when the
//! length needs more than that byte.  [`WireMessage::decode`] collects its
//! segments from the same [`SegmentView`] and [`SegmentView::primitives`],
//! so the frame has one reader.  A pipe carries no names at all and a
//! transit switch rule three absent options: the only strings in a
//! generated segment are the class, gateway and local prefix of a goal's
//! two edge-IP rules.

use crate::abstraction::{
    CounterSnapshot, Dependency, FilterCapability, FilterClassifier, ModuleAbstraction,
    PerfTradeoff, PerformanceMetric, PhysicalPipeInfo, SecurityCapability, SwitchCapability,
    SwitchKind, SwitchStateSource,
};
use crate::ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
use crate::module::{ModuleError, SwitchField};
use crate::primitives::{
    Announcement, ComponentRef, EnvelopeKind, FilterSpec, ModuleActual, ModuleEnvelope, Notice,
    Notification, PipeSpec, Primitive, PrimitiveResult, Refusal, RefusalCause, ResolvedName,
    ScriptSegment, SegmentCommit, SegmentVerdict, SwitchSpec, TradeoffChoice, WireMessage,
};
use mgmt_channel::codec::{
    Reader, Writer, TAG_ABORT_BATCH, TAG_ANNOUNCE, TAG_COMMIT_BATCH, TAG_COMMIT_BATCH_RESULT,
    TAG_COUNTER_REPORT, TAG_MODULE, TAG_NOTIFY, TAG_POLL_COUNTERS, TAG_RELAY_BATCH, TAG_SCRIPT,
    TAG_SCRIPT_RESULT, TAG_STAGE_BATCH, TAG_STAGE_BATCH_RESULT,
};
use netsim::device::{DeviceId, PortId};
use netsim::link::LinkId;
use netsim::stats::{DropReason, FlowCounters};
use std::collections::BTreeMap;

/// The management channel's encoding.  There is one, so nothing reads this
/// type: it is kept only so that `benchmark/`, which sets
/// [`ManagedNetwork::codec`](crate::ManagedNetwork::codec) to
/// `WireCodec::Binary`, still compiles, and goes when the benchmark stops
/// naming it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireCodec {
    /// The binary frames of this module, for every message.
    #[default]
    Binary,
}

/// Is this payload a `StageBatch` frame?  The runtime's receive path uses
/// this to route the payload to the agent's in-place validator without
/// materialising a [`WireMessage`] first.
pub(crate) fn is_stage_batch(payload: &[u8]) -> bool {
    payload.first() == Some(&TAG_STAGE_BATCH)
}

/// Is this message one of the batched-transaction messages whose encoded
/// size the `txn.encode_bytes` counter accounts?
pub(crate) fn is_batch_txn_message(msg: &WireMessage) -> bool {
    matches!(
        msg,
        WireMessage::StageBatch { .. }
            | WireMessage::StageBatchResult { .. }
            | WireMessage::CommitBatch { .. }
            | WireMessage::CommitBatchResult { .. }
            | WireMessage::AbortBatch { .. }
    )
}

impl WireMessage {
    /// Encode as the message's frame (see the [module docs](self)).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = FrameWriter::default();
        self.put_frame(&mut w);
        w.finish()
    }

    /// Decode one frame.  `None` for an unknown tag, a truncated or corrupt
    /// frame, or one with bytes left over.
    pub fn decode(bytes: &[u8]) -> Option<WireMessage> {
        let (tag, mut r) = FrameReader::open(bytes)?;
        let msg = WireMessage::read_frame(tag, &mut r)?;
        r.is_done().then_some(msg)
    }
}

/// Encode a `StageBatch` directly from borrowed per-goal primitive slices —
/// the zero-copy path the batch executor uses, skipping the owned
/// [`ScriptSegment`] clones entirely.  The same frame as
/// [`WireMessage::encode`] of the owned message.
pub fn encode_stage_batch(txn: u64, segments: &[(u64, &[Primitive])]) -> Vec<u8> {
    // Room for what generated segments take (a primitive averages about
    // 33 B), so the writer seldom regrows; `finish` copies the frame out
    // at its exact length, so the room never outlives the encode.
    let primitives: usize = segments.iter().map(|(_, p)| p.len()).sum();
    let mut w = FrameWriter {
        w: Writer::with_capacity(32 * primitives + 16 * segments.len() + 16),
        devices: Vec::new(),
    };
    w.put_u8(TAG_STAGE_BATCH);
    txn.put(&mut w);
    w.put_u32(segments.len() as u32);
    for (goal, primitives) in segments {
        put_segment(&mut w, *goal, primitives);
    }
    w.finish()
}

/// One `StageBatch` segment: its goal id, a length-prefixed primitive block
/// the agent can validate in place, framed where it is written, and its
/// window, the number of devices the block names first.
fn put_segment(w: &mut FrameWriter, goal: u64, primitives: &[Primitive]) {
    goal.put(w);
    let named = w.devices.len();
    let start = w.begin_bytes();
    Primitive::put_list(primitives, w);
    w.end_bytes(start);
    let window = w.devices.len() - named;
    w.put_u32(window as u32);
}

impl Field for ScriptSegment {
    fn put(&self, w: &mut FrameWriter) {
        put_segment(w, self.goal, &self.primitives);
    }
    // Through the same view the agent stages from, so the two agree.
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        let view = SegmentView::read(r)?;
        let stream = view.stream();
        let capacity = (stream.r.as_ref()).map_or(0, |r| presize(r, stream.remaining));
        let mut primitives = Vec::with_capacity(capacity);
        for p in stream {
            primitives.push(p.ok()?);
        }
        Some(ScriptSegment {
            goal: view.goal,
            primitives,
        })
    }
}

/// A borrowed view over a `StageBatch` frame: the transaction id plus one
/// `(goal, primitive-block)` slice per segment, sliced straight out of the
/// wire bytes.  The agent walks each segment's [`SegmentView::primitives`]
/// stream and validates primitives as they decode — no intermediate message
/// tree, no per-segment re-parse.
#[derive(Debug)]
pub struct StageBatchView<'a> {
    /// The transaction id shared by every segment.
    pub txn: u64,
    segments: Vec<SegmentView<'a>>,
}

impl<'a> StageBatchView<'a> {
    /// Parse the framing of a `StageBatch` frame: its device list and each
    /// segment's goal, block and window, the windows adding up to the list.
    /// Segment *contents* are not decoded here — only the length-prefixed
    /// slices are located — so a corrupt primitive surfaces later, from the
    /// segment's own stream, as a per-segment error rather than a dropped
    /// message.
    pub fn parse(payload: &'a [u8]) -> Option<Self> {
        let (tag, mut r) = FrameReader::open(payload)?;
        if tag != TAG_STAGE_BATCH {
            return None;
        }
        let txn = r.u64()?;
        let n = r.u32()?;
        let mut segments = Vec::with_capacity(presize(&r, n));
        for _ in 0..n {
            segments.push(SegmentView::read(&mut r)?);
        }
        r.is_done().then_some(StageBatchView { txn, segments })
    }

    /// Iterate the segments as borrowed views.
    pub fn segments(&self) -> impl Iterator<Item = SegmentView<'a>> + '_ {
        self.segments.iter().copied()
    }
}

impl<'a> IntoIterator for StageBatchView<'a> {
    type Item = SegmentView<'a>;
    type IntoIter = std::vec::IntoIter<SegmentView<'a>>;

    /// The segments, in frame order.
    fn into_iter(self) -> Self::IntoIter {
        self.segments.into_iter()
    }
}

/// One goal's segment inside a [`StageBatchView`]: the goal id, the
/// still-encoded primitive block and the devices it may name.
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    /// The owning goal (`GoalId.0`).
    pub goal: u64,
    block: &'a [u8],
    /// The frame's device list.
    devices: &'a [u8],
    /// The segment's window: the list's devices `first..end` are the ones
    /// it names first.
    first: usize,
    end: usize,
}

/// Error yielded by [`SegmentView::primitives`] when a segment's primitive
/// block is truncated or corrupt; the agent turns it into a per-segment
/// staging error instead of dropping the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedSegment;

impl<'a> SegmentView<'a> {
    /// Read one segment's framing, leaving its block encoded, and open its
    /// window where the last one closed: the one segment reader, behind
    /// [`StageBatchView::parse`] and the decoder.
    fn read(r: &mut FrameReader<'a>) -> Option<Self> {
        let goal = r.u64()?;
        let block = r.bytes()?;
        let first = r.named;
        let end = first.checked_add(r.u32()? as usize)?;
        if end > r.open {
            return None;
        }
        r.named = end;
        Some(SegmentView {
            goal,
            block,
            devices: r.devices,
            first,
            end,
        })
    }

    /// Stream the segment's primitives, decoding each one lazily from the
    /// borrowed block.  After a [`MalformedSegment`] error the stream ends.
    pub fn primitives(&self) -> impl Iterator<Item = Result<Primitive, MalformedSegment>> + 'a {
        self.stream()
    }

    fn stream(&self) -> PrimitiveStream<'a> {
        let mut r = FrameReader {
            r: Reader::new(self.block),
            devices: self.devices,
            named: self.first,
            open: self.end,
        };
        let remaining = r.u32();
        PrimitiveStream {
            r: Some(r),
            remaining: remaining.unwrap_or(0),
            // A block too short to carry its own count is malformed from
            // the first pull.
            poisoned: remaining.is_none(),
        }
    }
}

struct PrimitiveStream<'a> {
    /// `None` once the stream has ended.
    r: Option<FrameReader<'a>>,
    remaining: u32,
    poisoned: bool,
}

impl Iterator for PrimitiveStream<'_> {
    type Item = Result<Primitive, MalformedSegment>;

    fn next(&mut self) -> Option<Self::Item> {
        let r = self.r.as_mut()?;
        if self.poisoned || self.remaining == 0 {
            // Strictness: trailing bytes after the declared count are as
            // corrupt as missing ones, and a window device left unnamed as
            // a device named out of order.
            let done = !self.poisoned && r.is_done();
            self.r = None;
            return (!done).then_some(Err(MalformedSegment));
        }
        self.remaining -= 1;
        let primitive = Primitive::read(r);
        if primitive.is_none() {
            self.r = None;
        }
        Some(primitive.ok_or(MalformedSegment))
    }
}

// ---- frames -------------------------------------------------------------

/// A frame being written: its bytes from the tag on, and the devices they
/// name, in the order they first named them.  [`finish`](Self::finish)
/// puts the list between the tag and the rest.
#[derive(Default)]
struct FrameWriter {
    w: Writer,
    devices: Vec<DeviceId>,
}

impl FrameWriter {
    /// Write `device` as its index in the frame's list, listing it when it
    /// is new.  A frame names a few devices, so a scan finds it.
    fn put_device(&mut self, device: DeviceId) {
        let index = match self.devices.iter().position(|d| *d == device) {
            Some(index) => index,
            None => {
                self.devices.push(device);
                self.devices.len() - 1
            }
        };
        self.w.put_u32(index as u32);
    }

    /// The frame, at its exact length: the tag (the first byte written),
    /// the device list, then everything written after the tag.
    fn finish(self) -> Vec<u8> {
        let mut list = Writer::default();
        put_device_list(&mut list, &self.devices);
        let (list, body) = (list.finish(), self.w.finish());
        let mut bytes = Vec::with_capacity(list.len() + body.len());
        bytes.push(body[0]);
        bytes.extend_from_slice(&list);
        bytes.extend_from_slice(&body[1..]);
        bytes
    }
}

/// A device list: the one place a device id's raw bytes are written.
fn put_device_list(w: &mut Writer, devices: &[DeviceId]) {
    w.put_u32(devices.len() as u32);
    for device in devices {
        w.put_raw(&device.as_u64().to_le_bytes());
    }
}

impl std::ops::Deref for FrameWriter {
    type Target = Writer;
    fn deref(&self) -> &Writer {
        &self.w
    }
}

impl std::ops::DerefMut for FrameWriter {
    fn deref_mut(&mut self) -> &mut Writer {
        &mut self.w
    }
}

/// A device id is eight raw bytes in a frame's list.
const DEVICE_LEN: usize = 8;

/// A frame being read: the bytes after its device list, the list (borrowed
/// from the payload), and how far into it the fields read so far have
/// named.
struct FrameReader<'a> {
    r: Reader<'a>,
    devices: &'a [u8],
    /// How many of the list's devices have been named: a device not named
    /// yet must come at this index.
    named: usize,
    /// Where the devices this reader may name end: the end of the list,
    /// or of a `StageBatch` segment's window.
    open: usize,
}

impl<'a> FrameReader<'a> {
    /// Read a frame's tag and device list, refusing a device listed twice.
    fn open(payload: &'a [u8]) -> Option<(u8, Self)> {
        let mut r = Reader::new(payload);
        let tag = r.u8()?;
        let n = r.u32()? as usize;
        let devices = r.raw_slice(n.checked_mul(DEVICE_LEN)?)?;
        if n > 1 {
            let mut sorted: Vec<&[u8]> = devices.chunks_exact(DEVICE_LEN).collect();
            sorted.sort_unstable();
            if sorted.windows(2).any(|pair| pair[0] == pair[1]) {
                return None;
            }
        }
        let r = FrameReader {
            r,
            devices,
            named: 0,
            open: n,
        };
        Some((tag, r))
    }

    /// Read a device's index and look it up: one named already, or the
    /// next one of the window.
    fn device(&mut self) -> Option<DeviceId> {
        let index = self.r.u32()? as usize;
        if index == self.named && index < self.open {
            self.named += 1;
        } else if index >= self.named {
            return None;
        }
        let at = index * DEVICE_LEN;
        let bytes = self.devices[at..at + DEVICE_LEN].try_into().ok()?;
        Some(DeviceId::from_raw(u64::from_le_bytes(bytes)))
    }

    /// Whether every byte is read and every device this reader may name
    /// was named.
    fn is_done(&self) -> bool {
        self.r.is_exhausted() && self.named == self.open
    }
}

impl<'a> std::ops::Deref for FrameReader<'a> {
    type Target = Reader<'a>;
    fn deref(&self) -> &Reader<'a> {
        &self.r
    }
}

impl std::ops::DerefMut for FrameReader<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.r
    }
}

// ---- field layouts ----------------------------------------------------

/// A value with one layout wherever it appears in a frame (the table in the
/// module docs).  `read` returns `None`, never panics, on anything short or
/// out of range.
trait Field: Sized {
    fn put(&self, w: &mut FrameWriter);
    fn read(r: &mut FrameReader<'_>) -> Option<Self>;

    /// A list of this type: its count, then each item.  A type whose items
    /// share what the list writes once overrides the pair.
    fn put_list(items: &[Self], w: &mut FrameWriter) {
        w.put_u32(items.len() as u32);
        for item in items {
            item.put(w);
        }
    }
    fn read_list(r: &mut FrameReader<'_>) -> Option<Vec<Self>> {
        let n = r.u32()?;
        let mut items = Vec::with_capacity(presize(r, n));
        for _ in 0..n {
            items.push(Self::read(r)?);
        }
        Some(items)
    }
}

/// How many elements to pre-size a `Vec` for when the payload claims `n`
/// follow: never more than the bytes left to read, since every element
/// occupies at least one.  A lying count then fails at the first short read
/// instead of asking the allocator for gigabytes.
fn presize(r: &Reader<'_>, n: u32) -> usize {
    (n as usize).min(r.remaining())
}

impl Field for bool {
    fn put(&self, w: &mut FrameWriter) {
        w.put_bool(*self);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        r.bool()
    }
}

impl Field for u32 {
    fn put(&self, w: &mut FrameWriter) {
        w.put_u32(*self);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Field for u64 {
    fn put(&self, w: &mut FrameWriter) {
        w.put_u64(*self);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Field for usize {
    fn put(&self, w: &mut FrameWriter) {
        w.put_u64(*self as u64);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        r.u64()?.try_into().ok()
    }
}

impl Field for String {
    fn put(&self, w: &mut FrameWriter) {
        w.put_str(self);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        r.str().map(str::to_string)
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, w: &mut FrameWriter) {
        T::put_list(self, w);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        T::read_list(r)
    }
}

impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    fn put(&self, w: &mut FrameWriter) {
        w.put_u32(self.len() as u32);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    // Keys strictly ascending, as `put` writes them: a map has one byte
    // form, so a duplicate or out-of-order key is as corrupt as a short read.
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        let pairs: Vec<(K, V)> = Field::read(r)?;
        let ascending = pairs.windows(2).all(|w| w[0].0 < w[1].0);
        ascending.then(|| pairs.into_iter().collect())
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, w: &mut FrameWriter) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        match r.bool()? {
            false => Some(None),
            true => Some(Some(T::read(r)?)),
        }
    }
}

impl<T: Field> Field for Box<T> {
    fn put(&self, w: &mut FrameWriter) {
        (**self).put(w);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        T::read(r).map(Box::new)
    }
}

impl<T: Field, E: Field> Field for Result<T, E> {
    fn put(&self, w: &mut FrameWriter) {
        match self {
            Ok(v) => {
                w.put_u8(0);
                v.put(w);
            }
            Err(e) => {
                w.put_u8(1);
                e.put(w);
            }
        }
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(Ok(T::read(r)?)),
            1 => Some(Err(E::read(r)?)),
            _ => None,
        }
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, w: &mut FrameWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        Some((A::read(r)?, B::read(r)?))
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    fn put(&self, w: &mut FrameWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        Some((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

/// A device: its index in the frame's device list.
impl Field for DeviceId {
    fn put(&self, w: &mut FrameWriter) {
        w.put_device(*self);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        r.device()
    }
}

/// A byte; a list of bytes (a module's envelope body) is one
/// length-prefixed slice, copied as it is.
impl Field for u8 {
    fn put(&self, w: &mut FrameWriter) {
        w.put_u8(*self);
    }
    fn read(r: &mut FrameReader<'_>) -> Option<Self> {
        r.u8()
    }
    fn put_list(items: &[Self], w: &mut FrameWriter) {
        w.put_bytes(items);
    }
    fn read_list(r: &mut FrameReader<'_>) -> Option<Vec<Self>> {
        r.bytes().map(<[u8]>::to_vec)
    }
}

/// `u32` newtype ids: the number.
macro_rules! u32_ids {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            fn put(&self, w: &mut FrameWriter) {
                w.put_u32(self.0);
            }
            fn read(r: &mut FrameReader<'_>) -> Option<Self> {
                r.u32().map($ty)
            }
        }
    )*};
}

u32_ids!(PipeId, ModuleId, PortId, LinkId);

/// Enums: a byte, then the variant's fields in order.  The byte is the one
/// listed beside the variant: a message's frame tag, or the index the
/// variant was declared at (a retired variant's byte is never reused).  A
/// variant is written the way it is matched (`Done`, `Pipe(p)`,
/// `UndecodableBody { from, len }`), naming its fields.  `@frames` gives
/// [`WireMessage`] the same layout without the `Field` impl: its tag opens
/// a frame, and the frame's device list comes between the tag and the
/// fields.
macro_rules! enums {
    (@frames $ty:ident { $($variants:tt)* }) => {
        impl $ty {
            fn put_frame(&self, w: &mut FrameWriter) {
                enums!(@put self, w, $ty, $($variants)*)
            }
            fn read_frame(tag: u8, r: &mut FrameReader<'_>) -> Option<Self> {
                enums!(@read tag, r, $ty, $($variants)*)
            }
        }
    };
    (@put $v:expr, $w:ident, $ty:ident,
        $($byte:tt => $variant:ident $(($($t:ident),*))? $({ $($s:ident),* })?),* $(,)?
    ) => {
        match $v {
            $($ty::$variant $(($($t),*))? $({ $($s),* })? => {
                $w.put_u8($byte);
                $($($t.put($w);)*)?
                $($($s.put($w);)*)?
            })*
        }
    };
    (@read $b:ident, $r:ident, $ty:ident,
        $($byte:tt => $variant:ident $(($($t:ident),*))? $({ $($s:ident),* })?),* $(,)?
    ) => {
        Some(match $b {
            $($byte => {
                $($(let $t = Field::read($r)?;)*)?
                $($(let $s = Field::read($r)?;)*)?
                $ty::$variant $(($($t),*))? $({ $($s),* })?
            })*
            _ => return None,
        })
    };
    ($($ty:ident { $($variants:tt)* })*) => {$(
        impl Field for $ty {
            fn put(&self, w: &mut FrameWriter) {
                enums!(@put self, w, $ty, $($variants)*)
            }
            fn read(r: &mut FrameReader<'_>) -> Option<Self> {
                let byte = r.u8()?;
                enums!(@read byte, r, $ty, $($variants)*)
            }
        }
    )*};
}

enums! {
    @frames WireMessage {
        TAG_STAGE_BATCH => StageBatch { txn, segments },
        TAG_STAGE_BATCH_RESULT => StageBatchResult { txn, verdicts },
        TAG_COMMIT_BATCH => CommitBatch { txn, goals },
        TAG_COMMIT_BATCH_RESULT => CommitBatchResult { txn, segments },
        TAG_ABORT_BATCH => AbortBatch { txn, goals },
        TAG_RELAY_BATCH => RelayBatch { envelopes },
        TAG_ANNOUNCE => Announce(announcement),
        TAG_SCRIPT => Script { request, primitives },
        TAG_SCRIPT_RESULT => ScriptResult { request, results },
        TAG_MODULE => Module(envelope),
        TAG_NOTIFY => Notify(notification),
        TAG_POLL_COUNTERS => PollCounters { request, tags },
        TAG_COUNTER_REPORT => CounterReport { request, snapshots, flows },
    }
}

enums! {
    ModuleKind { 0 => Eth, 1 => Ip, 2 => Gre, 3 => Mpls, 4 => Vlan, 5 => App(code) }
    TradeoffChoice { 0 => InOrderDelivery, 1 => LowErrorRate, 2 => LowDelay }
    EnvelopeKind { 0 => Convey, 1 => FieldQuery, 2 => FieldResponse }
    Primitive {
        0 => ShowPotential,
        1 => ShowActual,
        2 => CreatePipe(spec),
        3 => CreateSwitch(spec),
        4 => CreateFilter(spec),
        5 => Delete(component),
    }
    ComponentRef { 0 => Pipe(p), 1 => SwitchRule(m, i, o), 2 => Filter(m, from, to) }
    PrimitiveResult { 0 => Potential(modules), 1 => Actual(map), 2 => PipeCreated(p), 3 => Done }
    RefusalCause {
        0 => UnknownModule(m),
        1 => Module(e),
        2 => MalformedSegment,
        3 => NeverStaged,
        4 => UnansweredStage,
        5 => UnansweredCommit,
        6 => PipeInUse(p),
        7 => SwitchWithoutPipe,
        8 => StaleTxn,
    }
    ModuleError {
        0 => CannotFilter,
        1 => MissingTradeoffs,
        2 => UndecodableBody { from, len },
        5 => BadSwitchField(field),
        6 => FilterInUse,
        7 => UnresolvedFilterEnd(end),
    }
    SwitchField { 0 => Gateway }
    Notice { 0 => Established, 1 => Refused(refusal), 2 => PollRoundCap }
    SwitchKind {
        0 => DownUp, 1 => UpDown, 2 => DownDown, 3 => UpUp, 4 => UpPhy, 5 => PhyUp, 6 => PhyPhy,
    }
    SwitchStateSource { 0 => GeneratedLocally, 1 => ProvidedExternally }
    PerformanceMetric {
        0 => Delay, 1 => Jitter, 2 => Bandwidth, 3 => LossRate, 4 => ErrorRate, 5 => Ordering,
    }
    FilterClassifier {
        0 => SourceModule, 1 => DestinationModule, 2 => ModuleType, 3 => Pipe, 4 => Device,
    }
    DropReason {
        0 => NoRoute, 1 => TtlExpired, 2 => Filtered, 3 => Malformed, 4 => TunnelMismatch,
        5 => NoLabel, 6 => NotForUs, 7 => PortDown, 8 => ForwardingDisabled, 9 => MtuExceeded,
    }
}

/// Structs: their fields, in the order listed (declaration order).
macro_rules! structs {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Field for $ty {
            fn put(&self, w: &mut FrameWriter) {
                $(self.$field.put(w);)*
            }
            fn read(r: &mut FrameReader<'_>) -> Option<Self> {
                Some($ty { $($field: Field::read(r)?),* })
            }
        }
    )*};
}

structs! {
    ModuleRef { kind, module, device }
    ModuleEnvelope { from, to, pipe, kind, body }
    ResolvedName { name, value }
    PipeSpec { pipe, upper, lower, peer_upper, peer_lower, peer_pipe, tradeoffs, initiate }
    SwitchSpec { module, in_pipe, out_pipe, dst_class, gateway, local_prefix }
    FilterSpec { module, from, to }
    Notification { from, body }
    Refusal { device, component, cause }
    ModuleActual { pipes, switch_rules, filters }
    Announcement { device, device_name, neighbors }
    SegmentVerdict { goal, errors }
    SegmentCommit { goal, results }
    CounterSnapshot { module, drop_breakdown }
    FlowCounters { originated, forwarded, local_delivered, drops }
    ModuleAbstraction {
        name, up_connectable, up_dependencies, down_connectable, down_dependencies,
        physical_pipes, peerable, filter, switch, perf_reporting, perf_tradeoffs,
        perf_enforcement, security, address_domain, fast_forwarding,
    }
    Dependency { id, description }
    PhysicalPipeInfo { port, link, broadcast }
    FilterCapability { classifiers }
    SwitchCapability { kinds, multicast, state_source, transparent_down_down }
    PerfTradeoff { costs, improves, applies_to }
    SecurityCapability { integrity, authenticity, confidentiality, external_state }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mref(kind: ModuleKind, m: u32, d: u64) -> ModuleRef {
        ModuleRef::new(kind, ModuleId(m), DeviceId::from_raw(d))
    }

    fn rich_segment(goal: u64) -> ScriptSegment {
        ScriptSegment {
            goal,
            primitives: vec![
                Primitive::CreatePipe(PipeSpec {
                    pipe: PipeId(41),
                    upper: mref(ModuleKind::Gre, 1, 1),
                    lower: mref(ModuleKind::App(1), 2, 1),
                    peer_upper: Some(mref(ModuleKind::Gre, 1, 3)),
                    peer_lower: None,
                    peer_pipe: Some(PipeId(u32::MAX)),
                    tradeoffs: vec![
                        TradeoffChoice::InOrderDelivery,
                        TradeoffChoice::LowErrorRate,
                        TradeoffChoice::LowDelay,
                    ],
                    initiate: true,
                }),
                Primitive::CreateSwitch(SwitchSpec {
                    module: mref(ModuleKind::Ip, 3, 1),
                    in_pipe: PipeId(41),
                    out_pipe: PipeId(42),
                    dst_class: Some(ResolvedName {
                        name: "C1-S2".into(),
                        value: "10.0.2.0/24".into(),
                    }),
                    gateway: None,
                    local_prefix: None,
                }),
                Primitive::CreateSwitch(SwitchSpec {
                    module: mref(ModuleKind::Ip, 3, 1),
                    in_pipe: PipeId(42),
                    out_pipe: PipeId(41),
                    dst_class: None,
                    gateway: Some(ResolvedName {
                        name: "S1-gateway".into(),
                        value: "192.168.0.1".into(),
                    }),
                    local_prefix: Some("10.0.1.0/24".into()),
                }),
                Primitive::CreateFilter(FilterSpec {
                    module: mref(ModuleKind::App(2), 4, 1),
                    from: mref(ModuleKind::Eth, 5, 1),
                    to: mref(ModuleKind::Eth, 6, 2),
                }),
                Primitive::Delete(ComponentRef::SwitchRule(
                    mref(ModuleKind::Mpls, 7, 1),
                    PipeId(1),
                    PipeId(2),
                )),
                Primitive::Delete(ComponentRef::Pipe(PipeId(3))),
                Primitive::Delete(ComponentRef::Filter(
                    mref(ModuleKind::Vlan, 8, 1),
                    mref(ModuleKind::Eth, 5, 1),
                    mref(ModuleKind::App(0), 0, u64::MAX),
                )),
                Primitive::ShowPotential,
                Primitive::ShowActual,
            ],
        }
    }

    /// A `showActual` answer with one of each kind of component.
    fn rich_actual() -> PrimitiveResult {
        let actual = ModuleActual {
            pipes: vec![PipeId(41)],
            switch_rules: vec![(PipeId(41), PipeId(42))],
            filters: vec![(mref(ModuleKind::Eth, 5, 1), mref(ModuleKind::Eth, 6, 2))],
        };
        PrimitiveResult::Actual([(mref(ModuleKind::Ip, 3, 1), actual)].into())
    }

    /// An abstraction that sets every field, every list holding every value
    /// its enum has, beside one that sets nothing.
    fn rich_potential() -> PrimitiveResult {
        let dependency = |id: &str| Dependency::new(id, "Performance Trade-offs to be specified");
        let every_metric = vec![
            PerformanceMetric::Delay,
            PerformanceMetric::Jitter,
            PerformanceMetric::Bandwidth,
            PerformanceMetric::LossRate,
            PerformanceMetric::ErrorRate,
            PerformanceMetric::Ordering,
        ];
        let rich = ModuleAbstraction {
            name: mref(ModuleKind::App(3), 9, 2),
            up_connectable: vec![ModuleKind::Ip, ModuleKind::App(2)],
            up_dependencies: vec![dependency("tradeoffs")],
            down_connectable: vec![ModuleKind::Eth, ModuleKind::Gre, ModuleKind::Mpls],
            down_dependencies: vec![dependency(""), dependency("ké")],
            physical_pipes: vec![
                PhysicalPipeInfo {
                    port: PortId(0),
                    link: Some(LinkId(7)),
                    broadcast: false,
                },
                PhysicalPipeInfo {
                    port: PortId(u32::MAX),
                    link: None,
                    broadcast: true,
                },
            ],
            peerable: vec![ModuleKind::Vlan],
            filter: FilterCapability {
                classifiers: vec![
                    FilterClassifier::SourceModule,
                    FilterClassifier::DestinationModule,
                    FilterClassifier::ModuleType,
                    FilterClassifier::Pipe,
                    FilterClassifier::Device,
                ],
            },
            switch: SwitchCapability {
                kinds: vec![
                    SwitchKind::DownUp,
                    SwitchKind::UpDown,
                    SwitchKind::DownDown,
                    SwitchKind::UpUp,
                    SwitchKind::UpPhy,
                    SwitchKind::PhyUp,
                    SwitchKind::PhyPhy,
                ],
                multicast: true,
                state_source: SwitchStateSource::ProvidedExternally,
                transparent_down_down: true,
            },
            perf_reporting: vec!["packets per pipe".into(), String::new()],
            perf_tradeoffs: vec![PerfTradeoff {
                costs: every_metric.clone(),
                improves: every_metric,
                applies_to: "Up-pipe".into(),
            }],
            perf_enforcement: vec!["queuing".into()],
            security: SecurityCapability {
                integrity: true,
                authenticity: false,
                confidentiality: true,
                external_state: Some(dependency("IKE")),
            },
            address_domain: Some("IPv4".into()),
            fast_forwarding: true,
        };
        let bare = ModuleAbstraction::empty(mref(ModuleKind::Eth, 1, 2));
        PrimitiveResult::Potential(vec![rich, bare])
    }

    /// One refusal per cause, with and without a component, and one per
    /// `ModuleError`.
    fn every_refusal() -> Vec<Refusal> {
        let gre = mref(ModuleKind::Gre, 9, 1);
        let module_errors = [
            ModuleError::CannotFilter,
            ModuleError::MissingTradeoffs,
            ModuleError::UndecodableBody {
                from: mref(ModuleKind::App(4), 1, 2),
                len: usize::MAX,
            },
            ModuleError::BadSwitchField(SwitchField::Gateway),
            ModuleError::FilterInUse,
            ModuleError::UnresolvedFilterEnd(mref(ModuleKind::Ip, 4, 3)),
        ];
        let causes = [
            RefusalCause::UnknownModule(gre),
            RefusalCause::MalformedSegment,
            RefusalCause::NeverStaged,
            RefusalCause::UnansweredStage,
            RefusalCause::UnansweredCommit,
            RefusalCause::PipeInUse(PipeId(u32::MAX)),
            RefusalCause::SwitchWithoutPipe,
            RefusalCause::StaleTxn,
        ];
        let components = [
            Some(ComponentRef::SwitchRule(gre, PipeId(1), PipeId(2))),
            None,
            Some(ComponentRef::Pipe(PipeId(3))),
            Some(ComponentRef::Filter(gre, gre, gre)),
        ];
        causes
            .into_iter()
            .chain(module_errors.map(RefusalCause::Module))
            .enumerate()
            .map(|(i, cause)| Refusal {
                device: DeviceId::from_raw(i as u64),
                component: components[i % components.len()].clone(),
                cause,
            })
            .collect()
    }

    /// Every variant, with contents a codec could trip on: every refusal
    /// cause and module error, every notice, `App` codes 0 to 255, empty and
    /// all-byte-values envelope bodies, a fully populated abstraction and
    /// every drop reason.
    fn every_message() -> Vec<WireMessage> {
        let env = ModuleEnvelope {
            from: mref(ModuleKind::Mpls, 3, 1),
            to: mref(ModuleKind::App(4), 3, 2),
            pipe: PipeId(u32::MAX),
            kind: EnvelopeKind::FieldResponse,
            body: (0x00..=0xFF).collect(),
        };
        // Three devices, each at both ends, and one envelope within a device.
        let hop = |from: u64, to: u64, pipe: u32| ModuleEnvelope {
            from: mref(ModuleKind::Ip, 1, from),
            to: mref(ModuleKind::Gre, 2, to),
            pipe: PipeId(pipe),
            kind: EnvelopeKind::Convey,
            body: vec![pipe as u8],
        };
        let hops = vec![
            hop(3, 1, 0),
            hop(1, u64::MAX, 200),
            hop(u64::MAX, 3, 1),
            hop(1, 1, 7),
            hop(3, u64::MAX, 300),
        ];
        let empty = ModuleEnvelope {
            kind: EnvelopeKind::Convey,
            body: Vec::new(),
            ..env.clone()
        };
        let query = ModuleEnvelope {
            kind: EnvelopeKind::FieldQuery,
            body: b"{\"hello\":true}".to_vec(),
            ..env.clone()
        };
        let refusals = every_refusal();
        let outcomes: Vec<_> = [
            PrimitiveResult::Done,
            PrimitiveResult::PipeCreated(PipeId(41)),
            rich_actual(),
            rich_potential(),
        ]
        .into_iter()
        .map(Ok)
        .chain(refusals.iter().cloned().map(|r| Err(Box::new(r))))
        .collect();
        let every_drop_reason = [
            DropReason::NoRoute,
            DropReason::TtlExpired,
            DropReason::Filtered,
            DropReason::Malformed,
            DropReason::TunnelMismatch,
            DropReason::NoLabel,
            DropReason::NotForUs,
            DropReason::PortDown,
            DropReason::ForwardingDisabled,
            DropReason::MtuExceeded,
        ];
        let notices = [
            Notice::Established,
            Notice::Refused(Box::new(refusals[0].clone())),
            Notice::PollRoundCap,
        ];
        let mut messages = vec![
            // The third segment names two devices of the first's window
            // and introduces two more; the second introduces none.
            WireMessage::StageBatch {
                txn: 7,
                segments: vec![
                    rich_segment(1),
                    ScriptSegment {
                        goal: 2,
                        primitives: vec![],
                    },
                    ScriptSegment {
                        goal: 3,
                        primitives: vec![
                            Primitive::CreateFilter(FilterSpec {
                                module: mref(ModuleKind::Ip, 1, 3),
                                from: mref(ModuleKind::Eth, 2, 5),
                                to: mref(ModuleKind::Eth, 3, 1),
                            }),
                            Primitive::Delete(ComponentRef::SwitchRule(
                                mref(ModuleKind::Ip, 1, 4),
                                PipeId(1),
                                PipeId(2),
                            )),
                        ],
                    },
                ],
            },
            WireMessage::StageBatchResult {
                txn: 7,
                verdicts: vec![
                    SegmentVerdict {
                        goal: 1,
                        errors: vec![],
                    },
                    SegmentVerdict {
                        goal: 2,
                        errors: refusals.clone(),
                    },
                ],
            },
            WireMessage::CommitBatch {
                txn: 7,
                goals: vec![1, 2],
            },
            WireMessage::CommitBatchResult {
                txn: 7,
                segments: vec![SegmentCommit {
                    goal: 1,
                    results: outcomes.clone(),
                }],
            },
            WireMessage::AbortBatch {
                txn: u64::MAX,
                goals: vec![],
            },
            WireMessage::RelayBatch {
                envelopes: vec![env.clone(), empty.clone(), query, env.clone()],
            },
            WireMessage::RelayBatch { envelopes: hops },
            WireMessage::RelayBatch { envelopes: vec![] },
            WireMessage::Announce(Announcement {
                device: DeviceId::from_raw(1),
                device_name: "Router ä".into(),
                neighbors: vec![
                    (PortId(0), DeviceId::from_raw(2), PortId(1)),
                    (PortId(3), DeviceId::from_raw(u64::MAX), PortId(0)),
                ],
            }),
            WireMessage::Script {
                request: 3,
                primitives: rich_segment(0).primitives,
            },
            WireMessage::ScriptResult {
                request: 3,
                results: outcomes,
            },
            WireMessage::Module(env),
            WireMessage::Module(empty),
            WireMessage::PollCounters {
                request: 3,
                tags: vec![1, u64::MAX],
            },
            WireMessage::CounterReport {
                request: 3,
                snapshots: vec![
                    CounterSnapshot {
                        module: mref(ModuleKind::Ip, 1, 1),
                        drop_breakdown: every_drop_reason.into_iter().zip(1..).collect(),
                    },
                    CounterSnapshot {
                        module: mref(ModuleKind::App(u8::MAX), 2, 1),
                        drop_breakdown: BTreeMap::new(),
                    },
                ],
                flows: vec![(
                    7,
                    FlowCounters {
                        originated: 1,
                        forwarded: 2,
                        local_delivered: 3,
                        drops: u64::MAX,
                    },
                )],
            },
        ];
        messages.extend(notices.into_iter().map(|body| {
            WireMessage::Notify(Notification {
                from: mref(ModuleKind::Vlan, 1, 1),
                body,
            })
        }));
        messages
    }

    #[test]
    fn every_message_round_trips_in_its_own_frame() {
        let mut tags = std::collections::BTreeSet::new();
        for msg in every_message() {
            let bytes = msg.encode();
            tags.insert(bytes[0]);
            assert_eq!(WireMessage::decode(&bytes).as_ref(), Some(&msg));
        }
        assert_eq!(
            tags,
            (TAG_STAGE_BATCH..=TAG_COUNTER_REPORT).collect(),
            "every variant has its own tag"
        );
    }

    /// Every refusal crosses inside each message that carries one.
    #[test]
    fn every_refusal_round_trips_in_every_message_that_carries_one() {
        for refusal in every_refusal() {
            for msg in [
                WireMessage::StageBatchResult {
                    txn: 3,
                    verdicts: vec![SegmentVerdict {
                        goal: 1,
                        errors: vec![refusal.clone(), refusal.clone()],
                    }],
                },
                WireMessage::CommitBatchResult {
                    txn: 3,
                    segments: vec![SegmentCommit {
                        goal: 1,
                        results: vec![Ok(PrimitiveResult::Done), Err(Box::new(refusal.clone()))],
                    }],
                },
                WireMessage::ScriptResult {
                    request: 3,
                    results: vec![Err(Box::new(refusal.clone()))],
                },
                WireMessage::Notify(Notification {
                    from: mref(ModuleKind::Ip, 1, 1),
                    body: Notice::Refused(Box::new(refusal.clone())),
                }),
            ] {
                assert_eq!(WireMessage::decode(&msg.encode()).as_ref(), Some(&msg));
            }
        }
    }

    /// A frame cut short anywhere, or with a byte left over, decodes to
    /// nothing.
    #[test]
    fn a_truncated_or_overlong_frame_is_rejected() {
        for msg in every_message() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    WireMessage::decode(&bytes[..cut]).is_none(),
                    "{:#x} cut at {cut}",
                    bytes[0]
                );
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(WireMessage::decode(&long).is_none(), "{:#x} + 1", bytes[0]);
        }
    }

    /// The reader accepts one byte form per frame: change any one byte of
    /// any frame to any value, and when the result still decodes, encoding
    /// what it decoded to gives back exactly the changed bytes.
    #[test]
    fn a_frame_that_decodes_after_any_one_byte_changes_re_encodes_to_those_bytes() {
        for msg in every_message() {
            let bytes = msg.encode();
            let mut mutated = bytes.clone();
            for at in 0..bytes.len() {
                for value in 0..=u8::MAX {
                    mutated[at] = value;
                    if let Some(decoded) = WireMessage::decode(&mutated) {
                        assert_eq!(
                            decoded.encode(),
                            mutated,
                            "{:#x} with byte {at} set to {value:#x}",
                            bytes[0]
                        );
                    }
                }
                mutated[at] = bytes[at];
            }
        }
    }

    /// A hand-built frame's device list.
    fn put_devices(w: &mut Writer, devices: &[u64]) {
        w.put_u32(devices.len() as u32);
        for device in devices {
            w.put_raw(&device.to_le_bytes());
        }
    }

    /// A `Module` frame from its parts: the device list, then one IP to IP
    /// convey envelope whose ends name their devices by the indexes `ends`.
    fn module_frame(devices: &[u64], ends: [u32; 2]) -> Vec<u8> {
        let mut w = Writer::with_tag(TAG_MODULE);
        put_devices(&mut w, devices);
        for index in ends {
            w.put_u8(1);
            w.put_u32(1);
            w.put_u32(index);
        }
        w.put_u32(7);
        w.put_u8(0);
        w.put_bytes(&[]);
        w.finish()
    }

    /// A primitive block that names a device by each of `indexes`, in
    /// order: one `delete` of an IP module's switch rule per index.
    fn block(indexes: &[u32]) -> Vec<u8> {
        let mut w = Writer::default();
        w.put_u32(indexes.len() as u32);
        for index in indexes {
            w.put_u8(5); // delete
            w.put_u8(1); // a switch rule
            w.put_u8(1); // of IP module 1
            w.put_u32(1);
            w.put_u32(*index);
            w.put_u32(1); // in pipe
            w.put_u32(2); // out pipe
        }
        w.finish()
    }

    /// A `Script` frame whose primitives name devices by `indexes`.
    fn script_frame(devices: &[u64], indexes: &[u32]) -> Vec<u8> {
        let mut w = Writer::with_tag(TAG_SCRIPT);
        put_devices(&mut w, devices);
        w.put_u64(3);
        w.put_raw(&block(indexes));
        w.finish()
    }

    /// A hand-built `StageBatch` segment: the device indexes its
    /// primitives name, and its window.
    type Segment<'a> = (&'a [u32], u32);

    /// A `StageBatch` frame of goals 1, 2, …
    fn stage_frame(devices: &[u64], segments: &[Segment]) -> Vec<u8> {
        let mut w = Writer::with_tag(TAG_STAGE_BATCH);
        put_devices(&mut w, devices);
        w.put_u64(7);
        w.put_u32(segments.len() as u32);
        for (goal, (indexes, window)) in (1..).zip(segments) {
            w.put_u64(goal);
            w.put_bytes(&block(indexes));
            w.put_u32(*window);
        }
        w.finish()
    }

    /// Whether the agent's in-place walk refuses the frame: its framing
    /// does not parse or one of its segments streams an error.
    fn view_refuses(bytes: &[u8]) -> bool {
        StageBatchView::parse(bytes).is_none_or(|view| {
            view.segments()
                .any(|segment| segment.primitives().any(|p| p.is_err()))
        })
    }

    /// A frame lists each device it names once, in the order it first
    /// names them, and the reader refuses any other list: in an envelope's
    /// ends, in a script's primitives and in a one-segment `StageBatch`
    /// whose window is the whole list.
    #[test]
    fn a_frame_lists_each_device_once_in_first_use_order() {
        let frames = |devices: &[u64], ends: [u32; 2]| {
            let window = devices.len() as u32;
            [
                module_frame(devices, ends),
                script_frame(devices, &ends),
                stage_frame(devices, &[(&ends, window)]),
            ]
        };
        for (devices, ends) in [(&[1, 2][..], [0, 1]), (&[2, 1], [0, 1]), (&[1], [0, 0])] {
            for bytes in frames(devices, ends) {
                let msg = WireMessage::decode(&bytes).expect("the one form decodes");
                assert_eq!(msg.encode(), bytes, "{:#x}", bytes[0]);
            }
        }
        let refused: [(&str, &[u64], [u32; 2]); 5] = [
            ("a device listed twice", &[1, 1], [0, 1]),
            ("a device nothing names", &[1, 2], [0, 0]),
            ("an index past the list", &[1], [0, 1]),
            (
                "a device named before the one listed first",
                &[1, 2],
                [1, 0],
            ),
            ("no list at all", &[], [0, 0]),
        ];
        for (name, devices, ends) in refused {
            for bytes in frames(devices, ends) {
                assert_eq!(WireMessage::decode(&bytes), None, "{name}: {:#x}", bytes[0]);
            }
            let stage = stage_frame(devices, &[(&ends, devices.len() as u32)]);
            assert!(view_refuses(&stage), "{name}: the view");
        }
    }

    /// A `StageBatch` segment may name the devices of the windows before
    /// its own and must name its own window's, in order.  A segment that
    /// breaks this fails alone, in the agent's walk, while the frame's
    /// other segments stage; windows that do not add up to the list fail
    /// the framing.
    #[test]
    fn each_stage_batch_segment_names_its_own_window_first() {
        let segments: &[Segment] = &[(&[0, 1, 0], 2), (&[1, 2], 1), (&[2, 0], 0)];
        let bytes = stage_frame(&[1, 2, 3], segments);
        let msg = WireMessage::decode(&bytes).expect("the one form decodes");
        assert_eq!(msg.encode(), bytes);
        assert!(!view_refuses(&bytes));

        let alone: [(&str, &[Segment]); 2] = [
            (
                "a segment names a device before its window opens",
                &[(&[0, 1], 1), (&[1], 1)],
            ),
            (
                "a segment introduces a device it never names",
                &[(&[0], 2), (&[1], 0)],
            ),
        ];
        for (name, segments) in alone {
            let bytes = stage_frame(&[1, 2], segments);
            assert_eq!(WireMessage::decode(&bytes), None, "{name}");
            let view = StageBatchView::parse(&bytes).expect("the framing parses");
            let failed: Vec<bool> = view
                .segments()
                .map(|segment| segment.primitives().any(|p| p.is_err()))
                .collect();
            assert_eq!(failed, [true, false], "{name}: only the first fails");
        }

        let framing: [(&str, &[Segment]); 2] = [
            ("windows short of the list", &[(&[0], 1), (&[0], 0)]),
            ("windows past the list", &[(&[0, 1], 2), (&[0], 1)]),
        ];
        for (name, segments) in framing {
            let bytes = stage_frame(&[1, 2], segments);
            assert!(StageBatchView::parse(&bytes).is_none(), "{name}");
            assert_eq!(WireMessage::decode(&bytes), None, "{name}");
        }
    }

    /// `seed`'s `k`-th device id: a bijective mix of `seed + k`, so the
    /// ids of one seed differ and their bytes look like nothing else in a
    /// frame.
    fn scattered(seed: u64, k: u64) -> u64 {
        let mut z = seed.wrapping_add(k).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest::proptest! {
        /// Whatever devices a frame's module refs, refusals and
        /// neighbours name, the frame holds each device id's eight bytes
        /// once if it names the device and never otherwise: the device
        /// list is the only place a device id is written raw.
        #[test]
        fn no_frame_holds_a_device_id_twice(
            picks in proptest::collection::vec((0u64..4, 0u64..4, 0u64..4), 0..10),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let device = |k: u64| scattered(seed, k);
            let filter = |&(m, from, to): &(u64, u64, u64)| {
                Primitive::CreateFilter(FilterSpec {
                    module: mref(ModuleKind::Ip, 1, device(m)),
                    from: mref(ModuleKind::Eth, 2, device(from)),
                    to: mref(ModuleKind::Eth, 3, device(to)),
                })
            };
            let primitives: Vec<Primitive> = picks.iter().map(filter).collect();
            let segments = (1..)
                .zip(primitives.chunks(3))
                .map(|(goal, chunk)| ScriptSegment { goal, primitives: chunk.to_vec() })
                .collect();
            let envelopes = (picks.iter())
                .map(|&(from, to, pipe)| ModuleEnvelope {
                    from: mref(ModuleKind::Gre, 1, device(from)),
                    to: mref(ModuleKind::Gre, 1, device(to)),
                    pipe: PipeId(pipe as u32),
                    kind: EnvelopeKind::Convey,
                    body: vec![1, 2, 3],
                })
                .collect();
            let errors = (picks.iter())
                .map(|&(at, m, _)| Refusal {
                    device: DeviceId::from_raw(device(at)),
                    component: None,
                    cause: RefusalCause::UnknownModule(mref(ModuleKind::Mpls, 4, device(m))),
                })
                .collect();
            let neighbors = (picks.iter())
                .map(|&(port, to, _)| {
                    (PortId(port as u32), DeviceId::from_raw(device(to)), PortId(0))
                })
                .collect();
            // The devices each message names: all three of a filter's, an
            // envelope's and a refusal's first two, the announcing device
            // and each neighbour's.
            let all: Vec<u64> = picks.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();
            let firsts: Vec<u64> = picks.iter().flat_map(|&(a, b, _)| [a, b]).collect();
            let announced: Vec<u64> = [0].into_iter().chain(picks.iter().map(|p| p.1)).collect();
            let messages = [
                (WireMessage::StageBatch { txn: 1, segments }, &all),
                (WireMessage::Script { request: 1, primitives }, &all),
                (WireMessage::RelayBatch { envelopes }, &firsts),
                (
                    WireMessage::StageBatchResult {
                        txn: 1,
                        verdicts: vec![SegmentVerdict { goal: 1, errors }],
                    },
                    &firsts,
                ),
                (
                    WireMessage::Announce(Announcement {
                        device: DeviceId::from_raw(device(0)),
                        device_name: "R".into(),
                        neighbors,
                    }),
                    &announced,
                ),
            ];
            for (msg, names) in messages {
                let bytes = msg.encode();
                proptest::prop_assert_eq!(WireMessage::decode(&bytes).as_ref(), Some(&msg));
                for k in 0..4 {
                    let id = device(k).to_le_bytes();
                    let held = bytes.windows(DEVICE_LEN).filter(|w| *w == id).count();
                    let named = usize::from(names.contains(&k));
                    proptest::prop_assert_eq!(held, named, "{:#x}, device {}", bytes[0], k);
                }
            }
        }
    }

    /// A segment's block is framed in place whether its length prefix takes
    /// one, two or three bytes, and the view slices it back out.
    #[test]
    fn segment_length_prefixes_of_every_width_round_trip_through_the_view() {
        // (primitives, bytes of the block's count, bytes of its prefix)
        for (n, count_len, prefix_len) in [(10, 1, 1), (200, 2, 2), (20_000, 3, 3)] {
            let block = vec![Primitive::ShowPotential; n];
            let bytes = encode_stage_batch(9, &[(5, &block)]);
            // Tag, device list, txn, segment count, goal and window take one
            // byte each, and each primitive one more.
            assert_eq!(bytes.len(), 6 + prefix_len + count_len + n, "{n}");
            let view = StageBatchView::parse(&bytes).expect("framing parses");
            let segments: Vec<_> = view.segments().collect();
            assert_eq!(segments.len(), 1);
            assert_eq!(segments[0].goal, 5);
            let decoded: Result<Vec<_>, _> = segments[0].primitives().collect();
            assert_eq!(decoded.unwrap(), block);
            let owned = WireMessage::StageBatch {
                txn: 9,
                segments: vec![ScriptSegment {
                    goal: 5,
                    primitives: block,
                }],
            };
            assert_eq!(owned.encode(), bytes);
            assert_eq!(WireMessage::decode(&bytes), Some(owned));
        }
    }

    #[test]
    fn stage_batch_view_walks_segments_in_place() {
        let seg = rich_segment(5);
        let borrowed: Vec<(u64, &[Primitive])> = vec![(5, &seg.primitives), (6, &[])];
        let bytes = encode_stage_batch(99, &borrowed);
        assert!(is_stage_batch(&bytes));

        let view = StageBatchView::parse(&bytes).expect("framing parses");
        assert_eq!(view.txn, 99);
        let segs: Vec<_> = view.segments().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].goal, 5);
        let decoded: Result<Vec<_>, _> = segs[0].primitives().collect();
        assert_eq!(decoded.unwrap(), seg.primitives);
        assert_eq!(segs[1].primitives().count(), 0);
    }

    #[test]
    fn corrupt_segments_fail_per_segment_not_per_batch() {
        let seg = rich_segment(5);
        let borrowed: Vec<(u64, &[Primitive])> = vec![(5, &seg.primitives)];
        let mut bytes = encode_stage_batch(3, &borrowed);
        // Corrupt the trailing primitive tag (`ShowActual`), the byte
        // before the segment's window: the framing still parses, the
        // primitive stream reports the corruption.
        let last = bytes.len() - 2;
        bytes[last] = 0xFF;
        let view = StageBatchView::parse(&bytes).expect("framing still parses");
        let seg = view.segments().next().unwrap();
        assert!(seg.primitives().any(|p| p.is_err()));
        // The generic decoder rejects the whole message.
        assert!(WireMessage::decode(&bytes).is_none());
    }
}
