//! Wire codecs for the management channel: vendored JSON everywhere, plus a
//! compact binary framing for the batched-transaction hot path.  Neither
//! codec interprets a module-to-module envelope's body: it is bytes the
//! sending module encoded and only the receiving module decodes.
//!
//! The paper's Table VI parity experiments (and every diagnostic tool that
//! reads payloads) keep the self-describing JSON encoding, which stays the
//! default.  Reconcile passes at scale, however, spend a startling share of
//! their wall time serialising, re-parsing and re-validating the
//! StageBatch/CommitBatch value trees — once per device, every pass.  The
//! [`WireCodec::Binary`] codec replaces exactly those six batch messages
//! with a length-prefixed binary layout (see `mgmt_channel::codec`) behind
//! the existing [`WireMessage`] enum: the channels and the channel tap
//! never see the difference, and
//! [`WireMessage::decode`] auto-detects the codec from the first payload
//! byte (binary tags are `>= 0x80`; JSON starts with `{`).
//!
//! The `StageBatch` layout additionally length-prefixes every goal segment,
//! so the receiving agent can walk borrowed segment slices and validate
//! primitives *as they decode* ([`StageBatchView`]) instead of
//! materialising the whole message first.
//!
//! A primitive inside a segment block is a tag byte and its fields in
//! declaration order (`opt X` is a presence byte, then `X` when it is 1;
//! `str` is a `u32` length and UTF-8 bytes; a module ref is a kind byte
//! (`0`–`4` ETH, IP, GRE, MPLS, VLAN; `7` an `App`, then its name), `u32`
//! module, `u64` device):
//!
//! ```text
//! 0 showPotential   1 showActual
//! 2 create pipe     u32 pipe, upper, lower, opt peer_upper, opt peer_lower,
//!                   u32 n + n tradeoff bytes, u8 initiate
//! 3 create switch   module, u32 in_pipe, u32 out_pipe,
//!                   opt (str name, str value) dst_class,
//!                   opt (str name, str value) gateway, opt str local_prefix
//! 4 create filter   module, from, to, u32 n + n (str key, str value)
//! 5 delete          0 + u32 pipe | 1 + module, u32 in, u32 out | 2 + module, from, to
//! ```
//!
//! A pipe carries no names at all and a transit switch rule three absent
//! options: the only strings in a generated segment are the class, gateway
//! and local prefix of a goal's two edge-IP rules.  A refusal in a verdict
//! or a commit result travels as its `u32`-length-prefixed JSON.
//!
//! A `RelayBatch` is a `u32` envelope count, then per envelope `from`, `to`,
//! a kind byte (`0` convey, `1` field query, `2` field response) and the
//! body as `u32`-length-prefixed bytes.  The body is already bytes — each
//! protocol module encodes its own messages — so the codec copies it and
//! never parses it; under [`WireCodec::Json`] the same body travels as a
//! JSON array of numbers.

use crate::ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
use crate::primitives::{
    ComponentRef, EnvelopeKind, FilterSpec, ModuleEnvelope, PipeSpec, Primitive, PrimitiveOutcome,
    PrimitiveResult, ResolvedName, ScriptSegment, SegmentCommit, SegmentVerdict, SwitchSpec,
    TradeoffChoice, WireMessage,
};
use mgmt_channel::codec::{self, Reader, Writer};
use netsim::device::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which encoding the NM and its agents put on the management channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum WireCodec {
    /// Self-describing vendored JSON for every message — the paper-parity
    /// default; byte counts feed the Table VI experiments.
    #[default]
    Json,
    /// Length-prefixed binary framing for the six batch messages
    /// (`StageBatch`, `StageBatchResult`, `CommitBatch`,
    /// `CommitBatchResult`, `AbortBatch`, `RelayBatch`); everything else
    /// stays JSON.  Decoding auto-detects, so mixed traffic is fine.
    Binary,
}

/// Is this payload a binary-coded `StageBatch`?  The runtime's receive path
/// uses this to route the payload to the agent's in-place validator without
/// materialising a [`WireMessage`] first.
pub(crate) fn is_binary_stage_batch(payload: &[u8]) -> bool {
    payload.first() == Some(&codec::TAG_STAGE_BATCH)
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
    /// Encode under the given codec: [`WireCodec::Binary`] hand-rolls the
    /// six batch messages, everything else (and everything under
    /// [`WireCodec::Json`]) serialises as before via [`WireMessage::encode`].
    pub fn encode_with(&self, codec: WireCodec) -> Vec<u8> {
        if codec == WireCodec::Json {
            return self.encode();
        }
        match self {
            WireMessage::StageBatch { txn, segments } => {
                let borrowed: Vec<(u64, &[Primitive])> = segments
                    .iter()
                    .map(|s| (s.goal, s.primitives.as_slice()))
                    .collect();
                encode_stage_batch(*txn, &borrowed)
            }
            WireMessage::StageBatchResult { txn, verdicts } => {
                let mut w = Writer::with_tag(codec::TAG_STAGE_BATCH_RESULT);
                w.put_u64(*txn);
                w.put_u32(verdicts.len() as u32);
                for v in verdicts {
                    w.put_u64(v.goal);
                    w.put_u32(v.errors.len() as u32);
                    for e in &v.errors {
                        put_json(&mut w, e);
                    }
                }
                w.finish()
            }
            WireMessage::CommitBatch { txn, goals } => {
                encode_goal_list(codec::TAG_COMMIT_BATCH, *txn, goals)
            }
            WireMessage::CommitBatchResult { txn, segments } => {
                let mut w = Writer::with_tag(codec::TAG_COMMIT_BATCH_RESULT);
                w.put_u64(*txn);
                w.put_u32(segments.len() as u32);
                for s in segments {
                    w.put_u64(s.goal);
                    w.put_u32(s.results.len() as u32);
                    for r in &s.results {
                        put_commit_result(&mut w, r);
                    }
                }
                w.finish()
            }
            WireMessage::AbortBatch { txn, goals } => {
                encode_goal_list(codec::TAG_ABORT_BATCH, *txn, goals)
            }
            WireMessage::RelayBatch { envelopes } => {
                let mut w = Writer::with_tag(codec::TAG_RELAY_BATCH);
                w.put_u32(envelopes.len() as u32);
                for env in envelopes {
                    put_module_ref(&mut w, &env.from);
                    put_module_ref(&mut w, &env.to);
                    w.put_u8(match env.kind {
                        EnvelopeKind::Convey => 0,
                        EnvelopeKind::FieldQuery => 1,
                        EnvelopeKind::FieldResponse => 2,
                    });
                    // The body is the sending module's own encoding, opaque
                    // to the NM (§II-D): it is copied as it is.
                    w.put_bytes(&env.body);
                }
                w.finish()
            }
            _ => self.encode(),
        }
    }
}

/// Encode a `StageBatch` directly from borrowed per-goal primitive slices —
/// the zero-copy path the batch executor uses, skipping the owned
/// [`ScriptSegment`] clones entirely.  Layout: tag, `txn`, segment count,
/// then per segment its goal id and a length-prefixed primitive block the
/// agent can validate in place.
pub fn encode_stage_batch(txn: u64, segments: &[(u64, &[Primitive])]) -> Vec<u8> {
    let mut w = Writer::with_tag(codec::TAG_STAGE_BATCH);
    w.put_u64(txn);
    w.put_u32(segments.len() as u32);
    for (goal, primitives) in segments {
        w.put_u64(*goal);
        let at = w.len();
        w.put_u32(0); // length prefix, patched below
        w.put_u32(primitives.len() as u32);
        for p in *primitives {
            put_primitive(&mut w, p);
        }
        w.patch_u32(at, (w.len() - at - 4) as u32);
    }
    w.finish()
}

/// Decode any payload: binary tags are dispatched to the binary decoders,
/// everything else is treated as JSON.  Returns `None` for malformed input
/// of either codec.
pub fn decode(bytes: &[u8]) -> Option<WireMessage> {
    if !codec::is_binary(bytes) {
        return serde_json::from_slice(bytes).ok();
    }
    let mut r = Reader::new(bytes);
    let msg = match r.u8()? {
        codec::TAG_STAGE_BATCH => {
            let view = StageBatchView::parse(bytes)?;
            let mut segments = Vec::with_capacity(view.segments.len());
            for seg in view.segments() {
                let mut primitives = Vec::new();
                for p in seg.primitives() {
                    primitives.push(p.ok()?);
                }
                segments.push(ScriptSegment {
                    goal: seg.goal,
                    primitives,
                });
            }
            WireMessage::StageBatch {
                txn: view.txn,
                segments,
            }
        }
        codec::TAG_STAGE_BATCH_RESULT => {
            let txn = r.u64()?;
            let n = r.u32()?;
            let mut verdicts = Vec::with_capacity(presize(&r, n));
            for _ in 0..n {
                let goal = r.u64()?;
                let nerr = r.u32()?;
                let mut errors = Vec::with_capacity(presize(&r, nerr));
                for _ in 0..nerr {
                    errors.push(read_json(&mut r)?);
                }
                verdicts.push(SegmentVerdict { goal, errors });
            }
            WireMessage::StageBatchResult { txn, verdicts }
        }
        codec::TAG_COMMIT_BATCH => {
            let (txn, goals) = read_goal_list(&mut r)?;
            WireMessage::CommitBatch { txn, goals }
        }
        codec::TAG_COMMIT_BATCH_RESULT => {
            let txn = r.u64()?;
            let n = r.u32()?;
            let mut segments = Vec::with_capacity(presize(&r, n));
            for _ in 0..n {
                let goal = r.u64()?;
                let nres = r.u32()?;
                let mut results = Vec::with_capacity(presize(&r, nres));
                for _ in 0..nres {
                    results.push(read_commit_result(&mut r)?);
                }
                segments.push(SegmentCommit { goal, results });
            }
            WireMessage::CommitBatchResult { txn, segments }
        }
        codec::TAG_ABORT_BATCH => {
            let (txn, goals) = read_goal_list(&mut r)?;
            WireMessage::AbortBatch { txn, goals }
        }
        codec::TAG_RELAY_BATCH => {
            let n = r.u32()?;
            let mut envelopes = Vec::with_capacity(presize(&r, n));
            for _ in 0..n {
                let from = read_module_ref(&mut r)?;
                let to = read_module_ref(&mut r)?;
                let kind = match r.u8()? {
                    0 => EnvelopeKind::Convey,
                    1 => EnvelopeKind::FieldQuery,
                    2 => EnvelopeKind::FieldResponse,
                    _ => return None,
                };
                let body = r.bytes()?.to_vec();
                envelopes.push(ModuleEnvelope {
                    from,
                    to,
                    kind,
                    body,
                });
            }
            WireMessage::RelayBatch { envelopes }
        }
        _ => return None,
    };
    Some(msg)
}

/// A borrowed view over a binary `StageBatch` payload: the transaction id
/// plus one `(goal, primitive-block)` slice per segment, sliced straight
/// out of the wire bytes.  The agent walks each segment's
/// [`SegmentView::primitives`] stream and validates primitives as they
/// decode — no intermediate message tree, no per-segment re-parse.
#[derive(Debug)]
pub struct StageBatchView<'a> {
    /// The transaction id shared by every segment.
    pub txn: u64,
    segments: Vec<(u64, &'a [u8])>,
}

impl<'a> StageBatchView<'a> {
    /// Parse the framing of a binary `StageBatch` payload.  Segment
    /// *contents* are not decoded here — only the length-prefixed slices
    /// are located — so a corrupt primitive surfaces later, from the
    /// segment's own stream, as a per-segment error rather than a dropped
    /// message.
    pub fn parse(payload: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(payload);
        if r.u8()? != codec::TAG_STAGE_BATCH {
            return None;
        }
        let txn = r.u64()?;
        let n = r.u32()?;
        let mut segments = Vec::with_capacity(presize(&r, n));
        for _ in 0..n {
            let goal = r.u64()?;
            let block = r.bytes()?;
            segments.push((goal, block));
        }
        if !r.is_exhausted() {
            return None;
        }
        Some(StageBatchView { txn, segments })
    }

    /// Iterate the segments as borrowed views.
    pub fn segments(&self) -> impl Iterator<Item = SegmentView<'a>> + '_ {
        self.segments
            .iter()
            .map(|(goal, bytes)| SegmentView { goal: *goal, bytes })
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
    /// Stream the segment's primitives, decoding each one lazily from the
    /// borrowed block.  After a [`MalformedSegment`] error the stream ends.
    pub fn primitives(&self) -> impl Iterator<Item = Result<Primitive, MalformedSegment>> + 'a {
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
        match read_primitive(&mut self.r) {
            Some(p) => Some(Ok(p)),
            None => {
                self.remaining = 0;
                self.r = Reader::new(&[]);
                Some(Err(MalformedSegment))
            }
        }
    }
}

// ---- field-level encoders/decoders ------------------------------------

/// How many elements to pre-size a `Vec` for when the payload claims `n`
/// follow: never more than the bytes left to read, since every element
/// occupies at least one.  A lying count then fails at the first short read
/// instead of asking the allocator for gigabytes.
fn presize(r: &Reader<'_>, n: u32) -> usize {
    (n as usize).min(r.remaining())
}

fn encode_goal_list(tag: u8, txn: u64, goals: &[u64]) -> Vec<u8> {
    let mut w = Writer::with_tag(tag);
    w.put_u64(txn);
    w.put_u32(goals.len() as u32);
    for g in goals {
        w.put_u64(*g);
    }
    w.finish()
}

fn read_goal_list(r: &mut Reader<'_>) -> Option<(u64, Vec<u64>)> {
    let txn = r.u64()?;
    let n = r.u32()?;
    let mut goals = Vec::with_capacity(presize(r, n));
    for _ in 0..n {
        goals.push(r.u64()?);
    }
    Some((txn, goals))
}

fn put_module_ref(w: &mut Writer, m: &ModuleRef) {
    match &m.kind {
        ModuleKind::Eth => w.put_u8(0),
        ModuleKind::Ip => w.put_u8(1),
        ModuleKind::Gre => w.put_u8(2),
        ModuleKind::Mpls => w.put_u8(3),
        ModuleKind::Vlan => w.put_u8(4),
        ModuleKind::App(name) => {
            w.put_u8(7);
            w.put_str(name);
        }
    }
    w.put_u32(m.module.0);
    w.put_u64(m.device.as_u64());
}

fn read_module_ref(r: &mut Reader<'_>) -> Option<ModuleRef> {
    let kind = match r.u8()? {
        0 => ModuleKind::Eth,
        1 => ModuleKind::Ip,
        2 => ModuleKind::Gre,
        3 => ModuleKind::Mpls,
        4 => ModuleKind::Vlan,
        7 => ModuleKind::App(r.str()?.to_string()),
        _ => return None,
    };
    let module = ModuleId(r.u32()?);
    let device = DeviceId::from_raw(r.u64()?);
    Some(ModuleRef::new(kind, module, device))
}

/// `opt X` of the frame layout: a presence byte, then `X` when it is 1.
fn put_opt<T>(w: &mut Writer, v: &Option<T>, put: impl FnOnce(&mut Writer, &T)) {
    w.put_u8(u8::from(v.is_some()));
    if let Some(v) = v {
        put(w, v);
    }
}

fn read_opt<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Option<T>,
) -> Option<Option<T>> {
    match r.u8()? {
        0 => Some(None),
        1 => Some(Some(read(r)?)),
        _ => None,
    }
}

fn put_resolved_name(w: &mut Writer, n: &ResolvedName) {
    w.put_str(&n.name);
    w.put_str(&n.value);
}

fn read_resolved_name(r: &mut Reader<'_>) -> Option<ResolvedName> {
    let name = r.str()?.to_string();
    let value = r.str()?.to_string();
    Some(ResolvedName { name, value })
}

/// A `FilterSpec`'s caller-supplied field map.
fn put_resolved(w: &mut Writer, resolved: &BTreeMap<String, String>) {
    w.put_u32(resolved.len() as u32);
    for (k, v) in resolved {
        w.put_str(k);
        w.put_str(v);
    }
}

fn read_resolved(r: &mut Reader<'_>) -> Option<BTreeMap<String, String>> {
    let n = r.u32()?;
    let mut map = BTreeMap::new();
    for _ in 0..n {
        let k = r.str()?.to_string();
        let v = r.str()?.to_string();
        map.insert(k, v);
    }
    Some(map)
}

fn tradeoff_tag(t: TradeoffChoice) -> u8 {
    match t {
        TradeoffChoice::InOrderDelivery => 0,
        TradeoffChoice::LowErrorRate => 1,
        TradeoffChoice::LowDelay => 2,
    }
}

fn read_tradeoff(r: &mut Reader<'_>) -> Option<TradeoffChoice> {
    match r.u8()? {
        0 => Some(TradeoffChoice::InOrderDelivery),
        1 => Some(TradeoffChoice::LowErrorRate),
        2 => Some(TradeoffChoice::LowDelay),
        _ => None,
    }
}

fn put_primitive(w: &mut Writer, p: &Primitive) {
    match p {
        Primitive::ShowPotential => w.put_u8(0),
        Primitive::ShowActual => w.put_u8(1),
        Primitive::CreatePipe(spec) => {
            w.put_u8(2);
            w.put_u32(spec.pipe.0);
            put_module_ref(w, &spec.upper);
            put_module_ref(w, &spec.lower);
            put_opt(w, &spec.peer_upper, put_module_ref);
            put_opt(w, &spec.peer_lower, put_module_ref);
            w.put_u32(spec.tradeoffs.len() as u32);
            for t in &spec.tradeoffs {
                w.put_u8(tradeoff_tag(*t));
            }
            w.put_bool(spec.initiate);
        }
        Primitive::CreateSwitch(spec) => {
            w.put_u8(3);
            put_module_ref(w, &spec.module);
            w.put_u32(spec.in_pipe.0);
            w.put_u32(spec.out_pipe.0);
            put_opt(w, &spec.dst_class, put_resolved_name);
            put_opt(w, &spec.gateway, put_resolved_name);
            put_opt(w, &spec.local_prefix, |w, s| w.put_str(s));
        }
        Primitive::CreateFilter(spec) => {
            w.put_u8(4);
            put_module_ref(w, &spec.module);
            put_module_ref(w, &spec.from);
            put_module_ref(w, &spec.to);
            put_resolved(w, &spec.resolved);
        }
        Primitive::Delete(c) => {
            w.put_u8(5);
            match c {
                ComponentRef::Pipe(p) => {
                    w.put_u8(0);
                    w.put_u32(p.0);
                }
                ComponentRef::SwitchRule(m, i, o) => {
                    w.put_u8(1);
                    put_module_ref(w, m);
                    w.put_u32(i.0);
                    w.put_u32(o.0);
                }
                ComponentRef::Filter(m, f, t) => {
                    w.put_u8(2);
                    put_module_ref(w, m);
                    put_module_ref(w, f);
                    put_module_ref(w, t);
                }
            }
        }
    }
}

fn read_primitive(r: &mut Reader<'_>) -> Option<Primitive> {
    Some(match r.u8()? {
        0 => Primitive::ShowPotential,
        1 => Primitive::ShowActual,
        2 => {
            let pipe = PipeId(r.u32()?);
            let upper = read_module_ref(r)?;
            let lower = read_module_ref(r)?;
            let peer_upper = read_opt(r, read_module_ref)?;
            let peer_lower = read_opt(r, read_module_ref)?;
            let n = r.u32()?;
            let mut tradeoffs = Vec::with_capacity(presize(r, n));
            for _ in 0..n {
                tradeoffs.push(read_tradeoff(r)?);
            }
            let initiate = r.bool()?;
            Primitive::CreatePipe(PipeSpec {
                pipe,
                upper,
                lower,
                peer_upper,
                peer_lower,
                tradeoffs,
                initiate,
            })
        }
        3 => {
            let module = read_module_ref(r)?;
            let in_pipe = PipeId(r.u32()?);
            let out_pipe = PipeId(r.u32()?);
            let dst_class = read_opt(r, read_resolved_name)?;
            let gateway = read_opt(r, read_resolved_name)?;
            let local_prefix = read_opt(r, |r| r.str().map(str::to_string))?;
            Primitive::CreateSwitch(SwitchSpec {
                module,
                in_pipe,
                out_pipe,
                dst_class,
                gateway,
                local_prefix,
            })
        }
        4 => {
            let module = read_module_ref(r)?;
            let from = read_module_ref(r)?;
            let to = read_module_ref(r)?;
            let resolved = read_resolved(r)?;
            Primitive::CreateFilter(FilterSpec {
                module,
                from,
                to,
                resolved,
            })
        }
        5 => Primitive::Delete(match r.u8()? {
            0 => ComponentRef::Pipe(PipeId(r.u32()?)),
            1 => {
                let m = read_module_ref(r)?;
                let i = PipeId(r.u32()?);
                let o = PipeId(r.u32()?);
                ComponentRef::SwitchRule(m, i, o)
            }
            2 => {
                let m = read_module_ref(r)?;
                let f = read_module_ref(r)?;
                let t = read_module_ref(r)?;
                ComponentRef::Filter(m, f, t)
            }
            _ => return None,
        }),
        _ => return None,
    })
}

/// A value rare in batch traffic and deeply structured (an abstraction tree,
/// a `showActual` answer, a refusal), embedded as its JSON bytes rather than
/// schema'd into the binary layout.
fn put_json<T: Serialize>(w: &mut Writer, v: &T) {
    w.put_bytes(&serde_json::to_vec(v).expect("wire values serialize"));
}

fn read_json<T: Deserialize>(r: &mut Reader<'_>) -> Option<T> {
    serde_json::from_slice(r.bytes()?).ok()
}

fn put_commit_result(w: &mut Writer, r: &PrimitiveOutcome) {
    match r {
        Ok(res) => {
            w.put_u8(0);
            match res {
                PrimitiveResult::Done => w.put_u8(0),
                PrimitiveResult::PipeCreated(p) => {
                    w.put_u8(1);
                    w.put_u32(p.0);
                }
                PrimitiveResult::Potential(mods) => {
                    w.put_u8(2);
                    put_json(w, mods);
                }
                PrimitiveResult::Actual(map) => {
                    w.put_u8(3);
                    put_json(w, map);
                }
            }
        }
        Err(refusal) => {
            w.put_u8(1);
            put_json(w, refusal);
        }
    }
}

fn read_commit_result(r: &mut Reader<'_>) -> Option<PrimitiveOutcome> {
    match r.u8()? {
        0 => Some(Ok(match r.u8()? {
            0 => PrimitiveResult::Done,
            1 => PrimitiveResult::PipeCreated(PipeId(r.u32()?)),
            2 => PrimitiveResult::Potential(read_json(r)?),
            3 => PrimitiveResult::Actual(read_json(r)?),
            _ => return None,
        })),
        1 => Some(Err(read_json(r)?)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::{FilterField, ModuleError};
    use crate::primitives::{ModuleActual, Notice, Notification, Refusal, RefusalCause};

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
                    tradeoffs: vec![TradeoffChoice::InOrderDelivery, TradeoffChoice::LowDelay],
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

    #[test]
    fn binary_roundtrip_every_batch_message() {
        let env = ModuleEnvelope {
            from: mref(ModuleKind::Mpls, 3, 1),
            to: mref(ModuleKind::Mpls, 3, 2),
            kind: EnvelopeKind::FieldResponse,
            body: (0x00..=0xFF).collect(),
        };
        let empty = ModuleEnvelope {
            body: Vec::new(),
            ..env.clone()
        };
        for msg in [
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
                        errors: every_refusal()[..1].to_vec(),
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
                    results: vec![
                        Ok(PrimitiveResult::PipeCreated(PipeId(41))),
                        Ok(PrimitiveResult::Done),
                        Ok(rich_actual()),
                        Err(Box::new(every_refusal()[1].clone())),
                    ],
                }],
            },
            WireMessage::AbortBatch {
                txn: 7,
                goals: vec![2],
            },
            WireMessage::RelayBatch {
                envelopes: vec![env.clone(), empty, env],
            },
        ] {
            let bytes = msg.encode_with(WireCodec::Binary);
            assert!(
                mgmt_channel::codec::is_binary(&bytes),
                "batch messages must use the binary framing"
            );
            let back = WireMessage::decode(&bytes).expect("binary payload decodes");
            assert_eq!(back, msg);
            // And the JSON encoding of the same message still round-trips.
            assert_eq!(WireMessage::decode(&msg.encode()).unwrap(), msg);
        }
    }

    /// One refusal per cause, with and without a component, and one per
    /// `ModuleError`.
    fn every_refusal() -> Vec<Refusal> {
        let gre = mref(ModuleKind::Gre, 9, 1);
        let module_errors = [
            ModuleError::CannotFilter,
            ModuleError::MissingTradeoffs,
            ModuleError::UndecodableBody {
                from: mref(ModuleKind::Ip, 1, 2),
                len: 3,
            },
            ModuleError::FilterWithoutAddress,
            ModuleError::BadFilterField(FilterField::ToPort),
        ];
        let causes = [
            RefusalCause::UnknownModule(gre.clone()),
            RefusalCause::MalformedSegment,
            RefusalCause::NeverStaged,
            RefusalCause::UnansweredStage,
            RefusalCause::UnansweredCommit,
        ];
        let component = Some(ComponentRef::SwitchRule(gre, PipeId(1), PipeId(2)));
        causes
            .into_iter()
            .chain(module_errors.map(RefusalCause::Module))
            .enumerate()
            .map(|(i, cause)| Refusal {
                device: DeviceId::from_raw(1),
                component: if i % 2 == 0 { component.clone() } else { None },
                cause,
            })
            .collect()
    }

    /// Every refusal crosses both codecs inside each message that carries
    /// one.
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
                for codec in [WireCodec::Json, WireCodec::Binary] {
                    let bytes = msg.encode_with(codec);
                    assert_eq!(
                        WireMessage::decode(&bytes).as_ref(),
                        Some(&msg),
                        "{codec:?}"
                    );
                }
            }
        }
    }

    /// A binary commit result whose refusal is cut short anywhere decodes to
    /// nothing, like any other truncated frame.
    #[test]
    fn a_truncated_binary_refusal_is_rejected() {
        let msg = WireMessage::CommitBatchResult {
            txn: 1,
            segments: vec![SegmentCommit {
                goal: 1,
                results: vec![Err(Box::new(every_refusal()[0].clone()))],
            }],
        };
        let bytes = msg.encode_with(WireCodec::Binary);
        for cut in 1..bytes.len() {
            assert!(WireMessage::decode(&bytes[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn non_batch_messages_stay_json_under_binary_codec() {
        let msg = WireMessage::PollCounters {
            request: 3,
            tags: vec![7],
        };
        let answer = WireMessage::ScriptResult {
            request: 3,
            results: vec![Ok(rich_actual())],
        };
        for msg in [msg, answer] {
            let bytes = msg.encode_with(WireCodec::Binary);
            assert!(!mgmt_channel::codec::is_binary(&bytes));
            assert_eq!(WireMessage::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn binary_is_smaller_than_json_for_batches() {
        let msg = WireMessage::StageBatch {
            txn: 9,
            segments: (0..32).map(rich_segment).collect(),
        };
        let json = msg.encode_with(WireCodec::Json).len();
        let binary = msg.encode_with(WireCodec::Binary).len();
        assert!(
            binary * 2 < json,
            "binary framing should be less than half the JSON size ({binary} vs {json})"
        );
    }

    #[test]
    fn stage_batch_view_walks_segments_in_place() {
        let seg = rich_segment(5);
        let borrowed: Vec<(u64, &[Primitive])> = vec![(5, &seg.primitives), (6, &[])];
        let bytes = encode_stage_batch(99, &borrowed);
        assert!(is_binary_stage_batch(&bytes));

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
        // The generic decoder rejects the whole message, like bad JSON.
        assert!(WireMessage::decode(&bytes).is_none());
    }

    #[test]
    fn truncated_binary_payloads_are_rejected() {
        let msg = WireMessage::CommitBatch {
            txn: 1,
            goals: vec![1, 2, 3],
        };
        let bytes = msg.encode_with(WireCodec::Binary);
        for cut in 1..bytes.len() {
            assert!(
                WireMessage::decode(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
    }
}
