//! Property-based tests on the substrate's core data structures and
//! invariants: wire-format round-trips, checksum detection, longest-prefix
//! match consistency, path-finder sanity — the plan checks' soundness on
//! honestly-planned goal fleets (random fleet shapes on the fan-out chain
//! and the multipath mesh must produce zero violations) — and
//! the binary management codec's behaviour on hostile bytes (it returns,
//! whatever a frame's counts and lengths claim).

use conman::mgmt_channel::codec::{TAG_COUNTER_REPORT, TAG_STAGE_BATCH};
use conman::netsim::ether::{EtherType, EthernetFrame};
use conman::netsim::gre::GreHeader;
use conman::netsim::ipv4::{internet_checksum, Ipv4Cidr, Ipv4Header, Ipv4Proto};
use conman::netsim::mac::MacAddr;
use conman::netsim::mpls::{decode_stack, encode_stack, Label, LabelStackEntry};
use conman::netsim::route::{Route, RouteTable, RouteTarget};
use conman::netsim::udp::UdpHeader;
use proptest::prelude::*;
use std::net::Ipv4Addr;

proptest! {
    #[test]
    fn ethernet_roundtrip(dst in any::<[u8; 6]>(), src in any::<[u8; 6]>(), ethertype in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let frame = EthernetFrame::new(MacAddr::new(dst), MacAddr::new(src), EtherType::from_u16(ethertype), payload);
        let bytes = frame.encode();
        let decoded = EthernetFrame::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, EthernetFrame::new(frame.dst, frame.src, frame.ethertype, frame.payload.as_slice()));
    }

    #[test]
    fn ipv4_roundtrip_and_checksum(src in any::<u32>(), dst in any::<u32>(), proto in any::<u8>(), ttl in 1u8..255, payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut header = Ipv4Header::new(Ipv4Addr::from(src), Ipv4Addr::from(dst), Ipv4Proto::from_u8(proto));
        header.ttl = ttl;
        let packet = header.encode_packet(&payload);
        // The encoded header always checksums to zero.
        prop_assert_eq!(internet_checksum(&packet[..20]), 0);
        let (decoded, body) = Ipv4Header::decode_packet(&packet).unwrap();
        prop_assert_eq!(decoded, header);
        prop_assert_eq!(body, payload);
    }

    #[test]
    fn ipv4_corruption_is_detected(src in any::<u32>(), dst in any::<u32>(), flip_bit in 0usize..(20 * 8), payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let header = Ipv4Header::new(Ipv4Addr::from(src), Ipv4Addr::from(dst), Ipv4Proto::Udp);
        let mut packet = header.encode_packet(&payload);
        packet[flip_bit / 8] ^= 1 << (flip_bit % 8);
        // Either decoding fails (checksum / version / length) or the decoded
        // header differs from the original — corruption never passes silently
        // as the same header.
        if let Ok((decoded, _)) = Ipv4Header::decode_packet(&packet) { prop_assert_ne!(decoded, header) }
    }

    #[test]
    fn gre_roundtrip(key in proptest::option::of(any::<u32>()), seq in proptest::option::of(any::<u32>()), csum in any::<bool>(), payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let header = GreHeader { protocol: 0x0800, key, sequence: seq, checksum_present: csum };
        let packet = header.encode_packet(&payload);
        let (decoded, body) = GreHeader::decode_packet(&packet).unwrap();
        prop_assert_eq!(decoded, header);
        prop_assert_eq!(body, payload);
    }

    #[test]
    fn udp_roundtrip(sp in any::<u16>(), dp in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let datagram = UdpHeader::new(sp, dp).encode_datagram(&payload);
        let (h, body) = UdpHeader::decode_datagram(&datagram).unwrap();
        prop_assert_eq!(h.src_port, sp);
        prop_assert_eq!(h.dst_port, dp);
        prop_assert_eq!(body, payload);
    }

    #[test]
    fn mpls_stack_roundtrip(labels in proptest::collection::vec(0u32..Label::MAX, 1..6), payload in proptest::collection::vec(any::<u8>(), 0..128)) {
        let n = labels.len();
        let stack: Vec<LabelStackEntry> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| LabelStackEntry::new(Label::new(*l).unwrap(), i == n - 1))
            .collect();
        let bytes = encode_stack(&stack, &payload);
        let (decoded, body) = decode_stack(&bytes).unwrap();
        prop_assert_eq!(decoded.iter().collect::<Vec<_>>(), stack);
        prop_assert_eq!(body, payload);
    }

    #[test]
    fn lpm_always_returns_the_longest_matching_prefix(
        prefixes in proptest::collection::vec((any::<u32>(), 0u8..=32), 1..20),
        probe in any::<u32>(),
    ) {
        let mut table = RouteTable::new();
        for (i, (addr, len)) in prefixes.iter().enumerate() {
            table.add(Route {
                dest: Ipv4Cidr::new(Ipv4Addr::from(*addr), *len),
                target: RouteTarget::Port { port: i as u32, via: None },
            });
        }
        let probe = Ipv4Addr::from(probe);
        let best = table.lookup(probe);
        // Reference implementation: scan everything.
        let expected_len = prefixes
            .iter()
            .map(|(addr, len)| Ipv4Cidr::new(Ipv4Addr::from(*addr), *len))
            .filter(|c| c.contains(probe))
            .map(|c| c.prefix_len)
            .max();
        match (best, expected_len) {
            (Some(route), Some(len)) => prop_assert_eq!(route.dest.prefix_len, len),
            (None, None) => {}
            (got, want) => prop_assert!(false, "lookup mismatch: got {:?}, want prefix length {:?}", got, want),
        }
    }

    #[test]
    fn cidr_contains_is_consistent_with_network(addr in any::<u32>(), len in 0u8..=32, probe in any::<u32>()) {
        let cidr = Ipv4Cidr::new(Ipv4Addr::from(addr), len);
        let probe_addr = Ipv4Addr::from(probe);
        let by_mask = (probe & cidr.mask()) == (addr & cidr.mask());
        prop_assert_eq!(cidr.contains(probe_addr), by_mask);
        prop_assert!(cidr.contains(cidr.network()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The path finder never produces a path that revisits a module or whose
    /// encapsulation bookkeeping is inconsistent, on chains of any small size.
    #[test]
    fn pathfinder_paths_are_always_sane(n in 2usize..5) {
        let mut t = conman::modules::managed_chain(n);
        t.discover();
        let goal = t.vpn_goal();
        let paths = t.mn.nm.find_paths(&goal);
        prop_assert!(!paths.is_empty());
        for p in &paths {
            // No module appears twice.
            let mut seen = std::collections::BTreeSet::new();
            for s in &p.steps {
                prop_assert!(seen.insert(s.module), "module revisited in {:?}", p.technology_label());
            }
            // Pushes and pops balance out: as many encapsulations as
            // decapsulations plus the customer's own headers handled at the
            // two edges.
            let pushes = p.steps.iter().filter(|s| s.switch.encapsulates()).count();
            let pops = p.steps.iter().filter(|s| s.switch.decapsulates()).count();
            prop_assert_eq!(pushes, pops, "unbalanced encapsulation in {}", p.technology_label());
            // Paths start at the goal's ingress and end at its egress.
            prop_assert_eq!(&p.steps.first().unwrap().module, &goal.from);
            prop_assert_eq!(&p.steps.last().unwrap().module, &goal.to);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Soundness of the plan checks: a fleet planned the way the batched
    /// reconcile pass plans it — each goal's pipe block consumed before the
    /// next goal plans — produces **zero** violations, for any fleet size
    /// on any small fan-out chain.  (Their completeness — that every
    /// `PlanViolation` variant actually fires on bad input — is covered by
    /// `runtime::verify`'s unit tests.)
    #[test]
    fn planned_chain_fleets_pass_the_preflight_verifier(n in 3usize..6, goals in 1usize..5) {
        use conman::core::nm::script;
        let mut t = conman::modules::managed_fanout_chain(n, goals);
        t.discover();
        t.mn.goals.limits = conman_bench::diagnosis::chain_limits(n);
        let mut plans = Vec::new();
        for k in 0..goals {
            let id = t.mn.submit(t.fanout_goal(k));
            let plan = t.mn.plan_goal(id).expect("a path exists for every fan-out pair");
            // Consume the block so the next plan gets a disjoint base, the
            // way reconcile() numbers a batch.
            t.mn.goals.take_pipe_block(script::slot_count(&plan.path));
            plans.push(plan);
        }
        let violations = t.mn.verify_plans(&plans);
        prop_assert!(violations.is_empty(), "chain fleet must verify clean: {violations:?}");
    }

    /// The same soundness property on the 2×k multipath mesh, whose longer
    /// paths and genuine alternatives exercise the link/exclusion model.
    #[test]
    fn planned_mesh_fleets_pass_the_preflight_verifier(k in 2usize..4, goals in 1usize..4) {
        use conman::core::nm::script;
        use mgmt_channel::OutOfBandChannel;
        let mut t: conman::modules::ManagedMesh<OutOfBandChannel> =
            conman::modules::managed_mesh_fanout(k, goals);
        t.discover();
        t.mn.goals.limits = conman_bench::control_loop::mesh_limits(k);
        let mut plans = Vec::new();
        for g in 0..goals {
            let id = t.mn.submit(t.fanout_goal(g));
            let plan = t.mn.plan_goal(id).expect("a path exists for every fan-out pair");
            t.mn.goals.take_pipe_block(script::slot_count(&plan.path));
            plans.push(plan);
        }
        let violations = t.mn.verify_plans(&plans);
        prop_assert!(violations.is_empty(), "mesh fleet must verify clean: {violations:?}");
    }
}

/// What the NM learnt of one testbed, the goal it plans on it and the
/// search limits it plans under.
struct Learnt {
    nm: conman::core::NetworkManager,
    goal: conman::core::ConnectivityGoal,
    limits: conman::core::PathFinderLimits,
}

/// The renaming property's testbeds, discovered once: the Figure 4 chain
/// under default limits, a 10-router chain whose `max_paths` cut bites, the
/// 2×3 fan-out mesh and a 4-switch VLAN chain.
fn learnt_testbeds() -> &'static [Learnt] {
    static TESTBEDS: std::sync::OnceLock<Vec<Learnt>> = std::sync::OnceLock::new();
    TESTBEDS.get_or_init(|| {
        let learnt = |mn: &mut conman::core::ManagedNetwork<mgmt_channel::OutOfBandChannel>,
                      goal,
                      limits| Learnt {
            nm: std::mem::take(&mut mn.nm),
            goal,
            limits,
        };
        let mut out = Vec::new();
        for (n, limits) in [
            (3, Default::default()),
            (10, conman_bench::diagnosis::chain_limits(10)),
        ] {
            let mut t = conman::modules::managed_chain(n);
            t.discover();
            let goal = t.vpn_goal();
            out.push(learnt(&mut t.mn, goal, limits));
        }
        let mut t = conman::modules::managed_mesh_fanout(3, 1);
        t.discover();
        let goal = t.fanout_goal(0);
        out.push(learnt(
            &mut t.mn,
            goal,
            conman_bench::control_loop::mesh_limits(3),
        ));
        let mut t = conman::modules::managed_vlan_chain(4);
        t.discover();
        let goal = t.vlan_goal();
        out.push(learnt(&mut t.mn, goal, Default::default()));
        out
    })
}

/// A bijection from the five protocol kinds to `App` codes, drawn from the
/// Lehmer code `perm` (< 5!), so the renamed kinds sort in a shuffled order.
struct Renaming([u8; 5]);

impl Renaming {
    fn new(mut perm: usize, salt: u8) -> Self {
        let mut pool: Vec<u8> = (0..5).collect();
        Renaming(std::array::from_fn(|i| {
            let pick = pool.remove(perm % (5 - i));
            perm /= 5 - i;
            salt.wrapping_add(pick)
        }))
    }

    fn kind(&self, kind: &conman::core::ModuleKind) -> conman::core::ModuleKind {
        use conman::core::ModuleKind;
        let i = match kind {
            ModuleKind::Eth => 0,
            ModuleKind::Ip => 1,
            ModuleKind::Gre => 2,
            ModuleKind::Mpls => 3,
            ModuleKind::Vlan => 4,
            ModuleKind::App(_) => return *kind,
        };
        ModuleKind::App(self.0[i])
    }

    fn kinds(&self, kinds: &[conman::core::ModuleKind]) -> Vec<conman::core::ModuleKind> {
        kinds.iter().map(|k| self.kind(k)).collect()
    }

    fn module(&self, m: &conman::core::ModuleRef) -> conman::core::ModuleRef {
        conman::core::ModuleRef::new(self.kind(&m.kind), m.module, m.device)
    }

    fn path(&self, path: &conman::core::ModulePath) -> conman::core::ModulePath {
        let mut path = path.clone();
        for step in &mut path.steps {
            step.module = self.module(&step.module);
        }
        path
    }

    fn primitive(&self, p: &conman::core::Primitive) -> conman::core::Primitive {
        use conman::core::Primitive;
        let mut p = p.clone();
        match &mut p {
            Primitive::CreatePipe(spec) => {
                for m in [&mut spec.upper, &mut spec.lower] {
                    *m = self.module(m);
                }
                for m in [&mut spec.peer_upper, &mut spec.peer_lower]
                    .into_iter()
                    .flatten()
                {
                    *m = self.module(m);
                }
            }
            Primitive::CreateSwitch(spec) => spec.module = self.module(&spec.module),
            other => panic!("script generation emits creates only: {other:?}"),
        }
        p
    }

    /// Everything the NM learnt, under the new names: each abstraction's
    /// name and the kinds it can connect and peer with.
    fn nm(&self, nm: &conman::core::NetworkManager) -> conman::core::NetworkManager {
        let mut abstractions = nm.abstractions.clone();
        for a in abstractions.values_mut().flatten() {
            a.name = self.module(&a.name);
            a.up_connectable = self.kinds(&a.up_connectable);
            a.down_connectable = self.kinds(&a.down_connectable);
            a.peerable = self.kinds(&a.peerable);
        }
        conman::core::NetworkManager {
            device_names: nm.device_names.clone(),
            adjacency: nm.adjacency.clone(),
            abstractions,
        }
    }
}

proptest! {
    /// The NM knows no protocol: rename every module kind by a random
    /// bijection in everything the NM learnt (abstractions and goals), and
    /// it finds the renamed paths in the same order, chooses the renamed
    /// path and generates the renamed scripts, primitive by primitive.
    #[test]
    fn planning_is_blind_to_module_names(perm in 0usize..120, salt in any::<u8>()) {
        let renaming = Renaming::new(perm, salt);
        for t in learnt_testbeds() {
            let paths = t.nm.find_paths_with(&t.goal, t.limits);
            let chosen = t.nm.choose_path(&paths).expect("every testbed has a path");
            let scripts = t.nm.generate_scripts(chosen, &t.goal);

            let nm = renaming.nm(&t.nm);
            let mut goal = t.goal.clone();
            goal.from = renaming.module(&goal.from);
            goal.to = renaming.module(&goal.to);
            let renamed = nm.find_paths_with(&goal, t.limits);
            let expected: Vec<_> = paths.iter().map(|p| renaming.path(p)).collect();
            prop_assert_eq!(renamed.len(), expected.len(), "paths under {:?}", renaming.0);
            prop_assert_eq!(&renamed, &expected, "paths under {:?}", renaming.0);
            let renamed_choice = nm.choose_path(&renamed).expect("the renamed paths");
            prop_assert_eq!(renamed_choice, &renaming.path(chosen));
            let renamed_scripts = nm.generate_scripts(renamed_choice, &goal);
            prop_assert_eq!(renamed_scripts.scripts.len(), scripts.scripts.len());
            for (got, want) in renamed_scripts.scripts.iter().zip(&scripts.scripts) {
                prop_assert_eq!(got.device, want.device);
                let want: Vec<_> = want.primitives.iter().map(|p| renaming.primitive(p)).collect();
                prop_assert_eq!(&got.primitives, &want);
            }
        }
    }
}

/// Decode `bytes` every way the runtime does: the generic decoder, and the
/// agent's in-place walk of a `StageBatch`'s segments and primitives.
/// Returning at all is the property — no panic, no allocator abort.
fn decode_every_way(bytes: &[u8]) -> Option<conman::core::WireMessage> {
    if let Some(view) = conman::core::wire::StageBatchView::parse(bytes) {
        for segment in view.segments() {
            segment.primitives().for_each(drop);
        }
    }
    conman::core::WireMessage::decode(bytes)
}

/// A frame whose element count claims four billion entries used to pre-size
/// a `Vec` for all of them and abort the process in the allocator (137 GB
/// for `StageBatchResult`, 103 GB through the agent's in-place `StageBatch`
/// path, 34 GB for `CommitBatch`).  Every frame that opens with a count —
/// after an empty device list (one byte, 0) and its transaction or request
/// id (here 0, one varint byte), or (`RelayBatch`) as its device list's
/// count straight after the tag, or (`Announce`) as its name's length after
/// a one-device list and that device's index — now fails at the first
/// short read.  The count is 2^32 - 1, the widest `u32` varint.
#[test]
fn a_lying_element_count_is_rejected_not_allocated_for() {
    use conman::mgmt_channel::codec::*;
    const LYING_COUNT: [u8; 5] = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
    let after_id = [
        TAG_STAGE_BATCH,
        TAG_STAGE_BATCH_RESULT,
        TAG_COMMIT_BATCH,
        TAG_COMMIT_BATCH_RESULT,
        TAG_ABORT_BATCH,
        TAG_SCRIPT,
        TAG_SCRIPT_RESULT,
        TAG_POLL_COUNTERS,
        TAG_COUNTER_REPORT,
    ];
    let frames = after_id
        .map(|tag| [&[tag, 0, 0][..], &LYING_COUNT].concat())
        .into_iter()
        .chain([
            [&[TAG_ANNOUNCE, 1][..], &[0u8; 8], &[0], &LYING_COUNT].concat(),
            [&[TAG_RELAY_BATCH][..], &LYING_COUNT].concat(),
        ]);
    for frame in frames {
        assert_eq!(decode_every_way(&frame), None, "tag {:#x}", frame[0]);
    }
}

/// One valid frame per `WireMessage` variant, in tag order, each checked to
/// decode back to the message it was encoded from.  The staged segment holds
/// a classified and a gateway rule, so every field that carries a resolved
/// value is on the wire; the results carry a `showActual` answer with one of
/// each kind of component, a `showPotential` answer and a refusal.
fn valid_batch_frames() -> Vec<Vec<u8>> {
    use conman::core::abstraction::{Dependency, PhysicalPipeInfo, SwitchKind};
    use conman::core::ids::{ModuleId, ModuleKind, ModuleRef, PipeId};
    use conman::core::module::ModuleError;
    use conman::core::primitives::{
        Announcement, ComponentRef, EnvelopeKind, FilterSpec, ModuleActual, ModuleEnvelope, Notice,
        Notification, PipeSpec, Primitive, PrimitiveResult, Refusal, RefusalCause, ResolvedName,
        ScriptSegment, SegmentCommit, SegmentVerdict, SwitchSpec, TradeoffChoice,
    };
    use conman::core::{CounterSnapshot, ModuleAbstraction, WireMessage};
    use conman::netsim::device::{DeviceId, PortId};
    use conman::netsim::stats::{DropReason, FlowCounters};

    let mref = |kind, m, d| ModuleRef::new(kind, ModuleId(m), DeviceId::from_raw(d));
    let refusal = |cause| Refusal {
        device: DeviceId::from_raw(1),
        component: Some(ComponentRef::Pipe(PipeId(41))),
        cause,
    };
    let primitives = vec![
        Primitive::CreatePipe(PipeSpec {
            pipe: PipeId(41),
            upper: mref(ModuleKind::Gre, 1, 1),
            lower: mref(ModuleKind::App(1), 2, 1),
            peer_upper: Some(mref(ModuleKind::Gre, 1, 3)),
            peer_lower: None,
            peer_pipe: Some(PipeId(300)),
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
        Primitive::Delete(ComponentRef::Pipe(PipeId(7))),
    ];
    let env = ModuleEnvelope {
        from: mref(ModuleKind::Mpls, 3, 1),
        to: mref(ModuleKind::Mpls, 3, 2),
        pipe: PipeId(300),
        kind: EnvelopeKind::FieldResponse,
        body: vec![0x00, 0x7B, 0x80, 0xFF],
    };
    let actual = ModuleActual {
        pipes: vec![PipeId(41)],
        switch_rules: vec![(PipeId(41), PipeId(42))],
        filters: vec![(mref(ModuleKind::Eth, 5, 1), mref(ModuleKind::Eth, 6, 2))],
    };
    let actual = PrimitiveResult::Actual([(mref(ModuleKind::Ip, 3, 1), actual)].into());
    let mut potential = ModuleAbstraction::empty(mref(ModuleKind::Gre, 1, 1));
    potential.up_connectable = vec![ModuleKind::Ip, ModuleKind::App(2)];
    potential.up_dependencies = vec![Dependency::new("tradeoffs", "Trade-offs")];
    potential.physical_pipes = vec![PhysicalPipeInfo {
        port: PortId(2),
        link: None,
        broadcast: true,
    }];
    potential.switch.kinds = vec![SwitchKind::UpDown, SwitchKind::DownUp];
    potential.address_domain = Some("IPv4".into());

    // The second segment names a device of the first's window and
    // introduces two; the third introduces none.
    let shared = vec![
        Primitive::CreateFilter(FilterSpec {
            module: mref(ModuleKind::Ip, 3, 3),
            from: mref(ModuleKind::Eth, 5, 4),
            to: mref(ModuleKind::Eth, 6, 5),
        }),
        Primitive::Delete(ComponentRef::SwitchRule(
            mref(ModuleKind::Ip, 3, 1),
            PipeId(41),
            PipeId(42),
        )),
    ];
    let stage_frame =
        conman::core::wire::encode_stage_batch(7, &[(1, &primitives), (2, &shared), (3, &[])]);
    let stage = WireMessage::StageBatch {
        txn: 7,
        segments: vec![
            ScriptSegment {
                goal: 1,
                primitives: primitives.clone(),
            },
            ScriptSegment {
                goal: 2,
                primitives: shared,
            },
            ScriptSegment {
                goal: 3,
                primitives: vec![],
            },
        ],
    };
    assert_eq!(stage.encode(), stage_frame, "one StageBatch frame");

    let mut frames = Vec::new();
    for msg in [
        stage,
        WireMessage::StageBatchResult {
            txn: 7,
            verdicts: vec![
                SegmentVerdict {
                    goal: 1,
                    errors: vec![],
                },
                SegmentVerdict {
                    goal: 2,
                    errors: vec![refusal(RefusalCause::UnknownModule(mref(
                        ModuleKind::Gre,
                        9,
                        1,
                    )))],
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
                    Ok(actual.clone()),
                    Err(Box::new(refusal(RefusalCause::NeverStaged))),
                ],
            }],
        },
        WireMessage::AbortBatch {
            txn: 7,
            goals: vec![2],
        },
        WireMessage::RelayBatch {
            envelopes: vec![env.clone(), env.clone()],
        },
        WireMessage::Announce(Announcement {
            device: DeviceId::from_raw(1),
            device_name: "RouterA".into(),
            neighbors: vec![(PortId(0), DeviceId::from_raw(2), PortId(1))],
        }),
        WireMessage::Script {
            request: 7,
            primitives,
        },
        WireMessage::ScriptResult {
            request: 7,
            results: vec![
                Ok(PrimitiveResult::Potential(vec![potential])),
                Ok(actual),
                Ok(PrimitiveResult::Done),
            ],
        },
        WireMessage::Module(env),
        WireMessage::Notify(Notification {
            from: mref(ModuleKind::Ip, 3, 1),
            body: Notice::Refused(Box::new(refusal(RefusalCause::Module(
                ModuleError::UndecodableBody {
                    from: mref(ModuleKind::Ip, 3, 2),
                    len: 4,
                },
            )))),
        }),
        WireMessage::PollCounters {
            request: 7,
            tags: vec![1, 2],
        },
        WireMessage::CounterReport {
            request: 7,
            snapshots: vec![CounterSnapshot {
                module: mref(ModuleKind::Ip, 3, 1),
                drop_breakdown: [(DropReason::NoRoute, 5), (DropReason::MtuExceeded, 1)].into(),
            }],
            flows: vec![(
                1,
                FlowCounters {
                    originated: 1,
                    forwarded: 2,
                    local_delivered: 3,
                    drops: 4,
                },
            )],
        },
    ] {
        let frame = msg.encode();
        assert_eq!(WireMessage::decode(&frame), Some(msg));
        frames.push(frame);
    }
    let tags: Vec<u8> = frames.iter().map(|f| f[0]).collect();
    assert_eq!(tags, Vec::from_iter(TAG_STAGE_BATCH..=TAG_COUNTER_REPORT));
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary bytes, half of them opening with one of the codec's tags.
    #[test]
    fn arbitrary_payloads_decode_without_panicking(
        bytes in proptest::collection::vec(any::<u8>(), 1..96),
        framed in any::<bool>(),
        tag in TAG_STAGE_BATCH..=TAG_COUNTER_REPORT,
    ) {
        let mut bytes = bytes;
        if framed {
            bytes[0] = tag;
        }
        decode_every_way(&bytes);
    }

    /// A valid frame of every message, damaged the way a hostile channel
    /// would: one to three bytes overwritten, then maybe cut short.  A
    /// damaged `StageBatch` is also read both ways the runtime reads one,
    /// and the two agree: the generic decoder returns a message exactly
    /// when the agent's in-place walk parses the framing and every segment
    /// streams only primitives, and then it returns those segments.
    #[test]
    fn damaged_batch_frames_decode_without_panicking(
        which in 0usize..13,
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
        cut in proptest::option::of(any::<usize>()),
    ) {
        let mut frame = valid_batch_frames().swap_remove(which);
        for (at, byte) in edits {
            let at = at % frame.len();
            frame[at] = byte;
        }
        if let Some(cut) = cut {
            frame.truncate(cut % (frame.len() + 1));
        }
        let decoded = decode_every_way(&frame);
        if which == 0 {
            let streamed = stream_stage_batch(&frame);
            prop_assert_eq!(decoded.is_some(), streamed.is_some(), "{:?}", decoded);
            if let Some((txn, segments)) = streamed {
                prop_assert_eq!(decoded, Some(conman::core::WireMessage::StageBatch { txn, segments }));
            }
        }
    }
}

/// A `StageBatch` as the agent stages it: the framing parsed in place and
/// every segment's primitives streamed, or `None` when either fails.
fn stream_stage_batch(bytes: &[u8]) -> Option<(u64, Vec<conman::core::primitives::ScriptSegment>)> {
    let view = conman::core::wire::StageBatchView::parse(bytes)?;
    let segments = view
        .segments()
        .map(|segment| {
            let primitives = segment.primitives().collect::<Result<_, _>>().ok()?;
            Some(conman::core::primitives::ScriptSegment {
                goal: segment.goal,
                primitives,
            })
        })
        .collect::<Option<_>>()?;
    Some((view.txn, segments))
}
