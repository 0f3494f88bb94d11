//! The management channel's one wire codec: every [`WireMessage`] is a
//! binary frame, a tag byte (`mgmt_channel::codec::TAG_*`) followed by the
//! message's fields.  There is no second codec and nothing sniffs: a payload
//! whose first byte is not one of the thirteen tags (a JSON document starts
//! with `{`) does not decode, and the runtime drops it and counts it under
//! `mgmt.decode_dropped`.  Neither does a frame with bytes left over.  The
//! codec never interprets a module-to-module envelope's body: it is bytes
//! the sending module encoded and only the receiving module decodes.
//!
//! A field has one layout wherever it appears:
//!
//! ```text
//! u32, u64     little-endian (a length in a ModuleError travels as u64)
//! bool         one byte, 0 or 1
//! str, bytes   u32 length, then the UTF-8 / raw bytes
//! list X       u32 count, then each X; a map is a list of (key, value)
//! opt X        presence byte 0 | 1, then X when it is 1
//! (A, B)       A then B; a struct is its fields in declaration order
//! enum         variant byte (its declaration index), then its fields
//! ids          pipe, module, port and link u32; device u64
//! module       kind (0-4 ETH IP GRE MPLS VLAN | 5 App + str), u32 module, u64 device
//! ```
//!
//! The thirteen frames, after the tag:
//!
//! ```text
//! 0x81 StageBatch        u64 txn, list (u64 goal, bytes block); block = list primitive
//! 0x82 StageBatchResult  u64 txn, list (u64 goal, list refusal)
//! 0x83 CommitBatch       u64 txn, list u64 goal
//! 0x84 CommitBatchResult u64 txn, list (u64 goal, list outcome)
//! 0x85 AbortBatch        u64 txn, list u64 goal
//! 0x86 RelayBatch        list envelope
//! 0x87 Announce          u64 device, str name, list (u32 port, u64 device, u32 port)
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
//!                 opt peer_lower, list tradeoff, bool initiate
//!             | 3 create switch: module, u32 in, u32 out, opt (str name, str value)
//!                 dst_class, opt (str name, str value) gateway, opt str local_prefix
//!             | 4 create filter: module, from, to, list (str key, str value)
//!             | 5 delete: component
//! component   0 u32 pipe | 1 module, u32 in, u32 out | 2 module, from, to
//! envelope    module from, to, kind (0 convey | 1 field query | 2 field response), bytes body
//! outcome     0 result | 1 refusal
//! result      0 list abstraction | 1 list (module, actual) | 2 u32 pipe created | 3 done
//! actual      list u32 pipe, list (u32, u32) switch rule, list (module, module) filter
//! refusal     u64 device, opt component, cause
//! cause       0 unknown module: module | 1 module error | 2 malformed segment
//!             | 3 never staged | 4 unanswered stage | 5 unanswered commit
//! module err  0 cannot filter | 1 missing tradeoffs | 2 undecodable body: module, u64 len
//!             | 3 filter without address | 4 bad filter field: field byte
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
//! The `StageBatch` frame length-prefixes every goal segment, so the
//! receiving agent can walk borrowed segment slices and validate primitives
//! *as they decode* ([`StageBatchView`]) instead of materialising the whole
//! message first.  [`WireMessage::decode`] collects its segments from the
//! same [`SegmentView`] and [`SegmentView::primitives`], so the frame has
//! one reader.  A pipe carries no names at all and a transit switch rule
//! three absent options: the only strings in a generated segment are the
//! class, gateway and local prefix of a goal's two edge-IP rules.

use crate::abstraction::{
    CounterSnapshot, Dependency, FilterCapability, FilterClassifier, ModuleAbstraction,
    PerfTradeoff, PerformanceMetric, PhysicalPipeInfo, SecurityCapability, SwitchCapability,
    SwitchKind, SwitchStateSource,
};
use crate::ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
use crate::module::{FilterField, ModuleError, SwitchField};
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
        let mut w = Writer::default();
        self.put(&mut w);
        w.finish()
    }

    /// Decode one frame.  `None` for an unknown tag, a truncated or corrupt
    /// frame, or one with bytes left over.
    pub fn decode(bytes: &[u8]) -> Option<WireMessage> {
        let mut r = Reader::new(bytes);
        let msg = WireMessage::read(&mut r)?;
        r.is_exhausted().then_some(msg)
    }
}

/// Encode a `StageBatch` directly from borrowed per-goal primitive slices —
/// the zero-copy path the batch executor uses, skipping the owned
/// [`ScriptSegment`] clones entirely.  The same frame as
/// [`WireMessage::encode`] of the owned message.
pub fn encode_stage_batch(txn: u64, segments: &[(u64, &[Primitive])]) -> Vec<u8> {
    let mut w = Writer::with_tag(TAG_STAGE_BATCH);
    txn.put(&mut w);
    w.put_u32(segments.len() as u32);
    for (goal, primitives) in segments {
        put_segment(&mut w, *goal, primitives);
    }
    w.finish()
}

/// One `StageBatch` segment: its goal id and a length-prefixed primitive
/// block the agent can validate in place.
fn put_segment(w: &mut Writer, goal: u64, primitives: &[Primitive]) {
    goal.put(w);
    let at = w.len();
    w.put_u32(0); // length prefix, patched below
    put_list(w, primitives);
    w.patch_u32(at, (w.len() - at - 4) as u32);
}

impl Field for ScriptSegment {
    fn put(&self, w: &mut Writer) {
        put_segment(w, self.goal, &self.primitives);
    }
    // Through the same view the agent stages from, so the two agree.
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let view = SegmentView::read(r)?;
        let stream = view.stream();
        let mut primitives = Vec::with_capacity(presize(&stream.r, stream.remaining));
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
    /// Parse the framing of a `StageBatch` frame.  Segment *contents* are
    /// not decoded here — only the length-prefixed slices are located — so
    /// a corrupt primitive surfaces later, from the segment's own stream, as
    /// a per-segment error rather than a dropped message.
    pub fn parse(payload: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        if r.u8()? != TAG_STAGE_BATCH {
            return None;
        }
        let txn = r.u64()?;
        let n = r.u32()?;
        let mut segments = Vec::with_capacity(presize(&r, n));
        for _ in 0..n {
            segments.push(SegmentView::read(&mut r)?);
        }
        if !r.is_exhausted() {
            return None;
        }
        Some(StageBatchView { txn, segments })
    }

    /// Iterate the segments as borrowed views.
    pub fn segments(&self) -> impl Iterator<Item = SegmentView<'a>> + '_ {
        self.segments.iter().copied()
    }
}

/// One goal's segment inside a [`StageBatchView`]: the goal id and the
/// still-encoded primitive block.
#[derive(Debug, Clone, Copy)]
pub struct SegmentView<'a> {
    /// The owning goal (`GoalId.0`).
    pub goal: u64,
    bytes: &'a [u8],
}

/// Error yielded by [`SegmentView::primitives`] when a segment's primitive
/// block is truncated or corrupt; the agent turns it into a per-segment
/// staging error instead of dropping the whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MalformedSegment;

impl<'a> SegmentView<'a> {
    /// Read one segment's framing, leaving its block encoded: the one
    /// segment reader, behind [`StageBatchView::parse`] and the decoder.
    fn read(r: &mut Reader<'a>) -> Option<Self> {
        let goal = r.u64()?;
        let bytes = r.bytes()?;
        Some(SegmentView { goal, bytes })
    }

    /// Stream the segment's primitives, decoding each one lazily from the
    /// borrowed block.  After a [`MalformedSegment`] error the stream ends.
    pub fn primitives(&self) -> impl Iterator<Item = Result<Primitive, MalformedSegment>> + 'a {
        self.stream()
    }

    fn stream(&self) -> PrimitiveStream<'a> {
        let mut r = Reader::new(self.bytes);
        let remaining = r.u32();
        PrimitiveStream {
            r,
            remaining: remaining.unwrap_or(0),
            // A block too short to carry its own count is malformed from
            // the first pull.
            poisoned: remaining.is_none(),
        }
    }
}

struct PrimitiveStream<'a> {
    r: Reader<'a>,
    remaining: u32,
    poisoned: bool,
}

impl Iterator for PrimitiveStream<'_> {
    type Item = Result<Primitive, MalformedSegment>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            self.poisoned = false;
            return Some(Err(MalformedSegment));
        }
        if self.remaining == 0 {
            // Strictness: trailing bytes after the declared count are as
            // corrupt as missing ones.
            if !self.r.is_exhausted() {
                self.r = Reader::new(&[]);
                return Some(Err(MalformedSegment));
            }
            return None;
        }
        self.remaining -= 1;
        match Primitive::read(&mut self.r) {
            Some(p) => Some(Ok(p)),
            None => {
                self.remaining = 0;
                self.r = Reader::new(&[]);
                Some(Err(MalformedSegment))
            }
        }
    }
}

// ---- field layouts ----------------------------------------------------

/// A value with one layout wherever it appears in a frame (the table in the
/// module docs).  `read` returns `None`, never panics, on anything short or
/// out of range.
trait Field: Sized {
    fn put(&self, w: &mut Writer);
    fn read(r: &mut Reader<'_>) -> Option<Self>;
}

/// How many elements to pre-size a `Vec` for when the payload claims `n`
/// follow: never more than the bytes left to read, since every element
/// occupies at least one.  A lying count then fails at the first short read
/// instead of asking the allocator for gigabytes.
fn presize(r: &Reader<'_>, n: u32) -> usize {
    (n as usize).min(r.remaining())
}

fn put_list<T: Field>(w: &mut Writer, items: &[T]) {
    w.put_u32(items.len() as u32);
    for item in items {
        item.put(w);
    }
}

impl Field for bool {
    fn put(&self, w: &mut Writer) {
        w.put_bool(*self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.bool()
    }
}

impl Field for u32 {
    fn put(&self, w: &mut Writer) {
        w.put_u32(*self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.u32()
    }
}

impl Field for u64 {
    fn put(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.u64()
    }
}

impl Field for usize {
    fn put(&self, w: &mut Writer) {
        w.put_u64(*self as u64);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.u64()?.try_into().ok()
    }
}

impl Field for String {
    fn put(&self, w: &mut Writer) {
        w.put_str(self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.str().map(str::to_string)
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, w: &mut Writer) {
        put_list(w, self);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let n = r.u32()?;
        let mut items = Vec::with_capacity(presize(r, n));
        for _ in 0..n {
            items.push(T::read(r)?);
        }
        Some(items)
    }
}

impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    fn put(&self, w: &mut Writer) {
        w.put_u32(self.len() as u32);
        for (k, v) in self {
            k.put(w);
            v.put(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        let pairs: Vec<(K, V)> = Field::read(r)?;
        Some(pairs.into_iter().collect())
    }
}

impl<T: Field> Field for Option<T> {
    fn put(&self, w: &mut Writer) {
        w.put_bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match r.bool()? {
            false => Some(None),
            true => Some(Some(T::read(r)?)),
        }
    }
}

impl<T: Field> Field for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        T::read(r).map(Box::new)
    }
}

impl<T: Field, E: Field> Field for Result<T, E> {
    fn put(&self, w: &mut Writer) {
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
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(Ok(T::read(r)?)),
            1 => Some(Err(E::read(r)?)),
            _ => None,
        }
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::read(r)?, B::read(r)?))
    }
}

impl<A: Field, B: Field, C: Field> Field for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some((A::read(r)?, B::read(r)?, C::read(r)?))
    }
}

impl Field for DeviceId {
    fn put(&self, w: &mut Writer) {
        w.put_u64(self.as_u64());
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        r.u64().map(DeviceId::from_raw)
    }
}

/// `u32` newtype ids: the number.
macro_rules! u32_ids {
    ($($ty:ident),*) => {$(
        impl Field for $ty {
            fn put(&self, w: &mut Writer) {
                w.put_u32(self.0);
            }
            fn read(r: &mut Reader<'_>) -> Option<Self> {
                r.u32().map($ty)
            }
        }
    )*};
}

u32_ids!(PipeId, ModuleId, PortId, LinkId);

/// Enums: a byte, then the variant's fields in order.  The byte is the
/// variant's declaration index, or for a message its frame tag.  A variant
/// is written the way it is matched (`Done`, `Pipe(p)`,
/// `UndecodableBody { from, len }`), naming its fields.
macro_rules! enums {
    ($($ty:ident {
        $($byte:tt => $variant:ident $(($($t:ident),*))? $({ $($s:ident),* })?),* $(,)?
    })*) => {$(
        impl Field for $ty {
            fn put(&self, w: &mut Writer) {
                match self {
                    $($ty::$variant $(($($t),*))? $({ $($s),* })? => {
                        w.put_u8($byte);
                        $($($t.put(w);)*)?
                        $($($s.put(w);)*)?
                    })*
                }
            }
            fn read(r: &mut Reader<'_>) -> Option<Self> {
                Some(match r.u8()? {
                    $($byte => {
                        $($(let $t = Field::read(r)?;)*)?
                        $($(let $s = Field::read(r)?;)*)?
                        $ty::$variant $(($($t),*))? $({ $($s),* })?
                    })*
                    _ => return None,
                })
            }
        }
    )*};
}

enums! {
    WireMessage {
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
    ModuleKind { 0 => Eth, 1 => Ip, 2 => Gre, 3 => Mpls, 4 => Vlan, 5 => App(name) }
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
    }
    ModuleError {
        0 => CannotFilter,
        1 => MissingTradeoffs,
        2 => UndecodableBody { from, len },
        3 => FilterWithoutAddress,
        4 => BadFilterField(field),
        5 => BadSwitchField(field),
        6 => FilterInUse,
    }
    FilterField { 0 => FromAddress, 1 => ToAddress, 2 => ToPort }
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
            fn put(&self, w: &mut Writer) {
                $(self.$field.put(w);)*
            }
            fn read(r: &mut Reader<'_>) -> Option<Self> {
                Some($ty { $($field: Field::read(r)?),* })
            }
        }
    )*};
}

structs! {
    ModuleRef { kind, module, device }
    ResolvedName { name, value }
    PipeSpec { pipe, upper, lower, peer_upper, peer_lower, tradeoffs, initiate }
    SwitchSpec { module, in_pipe, out_pipe, dst_class, gateway, local_prefix }
    FilterSpec { module, from, to, resolved }
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

/// The body is the sending module's own encoding, opaque to the NM
/// (§II-D): it is copied as it is, one length-prefixed slice.
impl Field for ModuleEnvelope {
    fn put(&self, w: &mut Writer) {
        self.from.put(w);
        self.to.put(w);
        self.kind.put(w);
        w.put_bytes(&self.body);
    }
    fn read(r: &mut Reader<'_>) -> Option<Self> {
        Some(ModuleEnvelope {
            from: Field::read(r)?,
            to: Field::read(r)?,
            kind: Field::read(r)?,
            body: r.bytes()?.to_vec(),
        })
    }
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
                    lower: mref(ModuleKind::App("HTTP".into()), 2, 1),
                    peer_upper: Some(mref(ModuleKind::Gre, 1, 3)),
                    peer_lower: None,
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
                    module: mref(ModuleKind::App("IKE".into()), 4, 1),
                    from: mref(ModuleKind::Eth, 5, 1),
                    to: mref(ModuleKind::Eth, 6, 2),
                    resolved: [("to-port".to_string(), "80".to_string())].into(),
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
                    mref(ModuleKind::App(String::new()), 0, u64::MAX),
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
            name: mref(ModuleKind::App("IPsec".into()), 9, 2),
            up_connectable: vec![ModuleKind::Ip, ModuleKind::App("IKE".into())],
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
                from: mref(ModuleKind::App("babble".into()), 1, 2),
                len: usize::MAX,
            },
            ModuleError::FilterWithoutAddress,
            ModuleError::BadFilterField(FilterField::FromAddress),
            ModuleError::BadFilterField(FilterField::ToAddress),
            ModuleError::BadFilterField(FilterField::ToPort),
            ModuleError::BadSwitchField(SwitchField::Gateway),
            ModuleError::FilterInUse,
        ];
        let causes = [
            RefusalCause::UnknownModule(gre.clone()),
            RefusalCause::MalformedSegment,
            RefusalCause::NeverStaged,
            RefusalCause::UnansweredStage,
            RefusalCause::UnansweredCommit,
            RefusalCause::PipeInUse(PipeId(u32::MAX)),
            RefusalCause::SwitchWithoutPipe,
        ];
        let components = [
            Some(ComponentRef::SwitchRule(gre.clone(), PipeId(1), PipeId(2))),
            None,
            Some(ComponentRef::Pipe(PipeId(3))),
            Some(ComponentRef::Filter(gre.clone(), gre.clone(), gre)),
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
    /// cause and module error, every notice, `App` names, empty and
    /// all-byte-values envelope bodies, a fully populated abstraction and
    /// every drop reason.
    fn every_message() -> Vec<WireMessage> {
        let env = ModuleEnvelope {
            from: mref(ModuleKind::Mpls, 3, 1),
            to: mref(ModuleKind::App("babble".into()), 3, 2),
            kind: EnvelopeKind::FieldResponse,
            body: (0x00..=0xFF).collect(),
        };
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
            WireMessage::StageBatch {
                txn: 7,
                segments: vec![
                    rich_segment(1),
                    ScriptSegment {
                        goal: 2,
                        primitives: vec![],
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
                        module: mref(ModuleKind::App("x".into()), 2, 1),
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
        // Corrupt the trailing primitive tag (`ShowActual`): the framing
        // still parses, the primitive stream reports the corruption.
        let last = bytes.len() - 1;
        bytes[last] = 0xFF;
        let view = StageBatchView::parse(&bytes).expect("framing still parses");
        let seg = view.segments().next().unwrap();
        assert!(seg.primitives().any(|p| p.is_err()));
        // The generic decoder rejects the whole message.
        assert!(WireMessage::decode(&bytes).is_none());
    }
}
