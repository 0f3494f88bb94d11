//! Reproduction of Table VI: management messages sent and received by the NM
//! while configuring the VPN over GRE, MPLS and VLAN paths, as a function of
//! the number of routers along the path (n).
//!
//! Paper expressions:  GRE  sent 3n+2, received 2n+2
//!                     MPLS sent 3n-2, received 2n-1
//!                     VLAN sent 3n-2, received 2n-1
//!
//! Sent counts commands plus relayed module-to-module messages; received
//! counts relayed messages plus module notifications (script results /
//! responses are excluded, as in the paper).

use conman_bench::{configure_and_count, configure_vlan_and_count, table6_counts, NmCost};
use conman_core::abstraction::SwitchStateSource;
use conman_core::module::{ModuleCtx, ModuleError, ModuleReaction, ProtocolModule};
use conman_core::primitives::{EnvelopeKind, ModuleEnvelope, Primitive, PrimitiveResult};
use conman_core::runtime::ChannelCounters;
use conman_core::{ModuleAbstraction, ModuleId, ModuleKind, ModuleRef, PipeId, WireMessage};
use conman_modules::{
    managed_chain, managed_chain_with, managed_fanout_chain, managed_vlan_chain, ManagedChain,
};
use conman_obs::Recorder;
use mgmt_channel::MessageCategory::{self, Command, ConveyMessage, Notification, Response};
use mgmt_channel::{InBandChannel, ManagementChannel, OutOfBandChannel};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Table VI's (sent, received) messages.
fn msgs(c: NmCost) -> (u64, u64) {
    (c.sent, c.received)
}

/// The payload bytes of the messages [`msgs`] counts.
fn bytes(c: NmCost) -> (u64, u64) {
    (c.bytes_sent, c.bytes_received)
}

#[test]
fn table6_gre_matches_the_papers_expressions() {
    for n in [3usize, 4, 6] {
        let (sent, received) = msgs(configure_and_count(n, "GRE-IP"));
        assert_eq!(sent, (3 * n + 2) as u64, "GRE sent for n={n}");
        assert_eq!(received, (2 * n + 2) as u64, "GRE received for n={n}");
    }
}

#[test]
fn table6_mpls_matches_the_papers_expressions() {
    for n in [3usize, 4, 6] {
        let (sent, received) = msgs(configure_and_count(n, "MPLS"));
        assert_eq!(sent, (3 * n - 2) as u64, "MPLS sent for n={n}");
        assert_eq!(received, (2 * n - 1) as u64, "MPLS received for n={n}");
    }
}

#[test]
fn table6_vlan_matches_the_papers_expressions() {
    for n in [3usize, 4, 6] {
        let (sent, received) = msgs(configure_vlan_and_count(n));
        assert_eq!(sent, (3 * n - 2) as u64, "VLAN sent for n={n}");
        assert_eq!(received, (2 * n - 1) as u64, "VLAN received for n={n}");
    }
}

/// Table VI in bytes: the payload bytes of the messages the three tests
/// above count, at n = 3, pinned exactly so that a change to the wire
/// encoding or to what a message carries fails here.  `experiments table6`
/// prints the same cells for every n.
#[test]
fn table6_bytes_at_three_routers_are_pinned() {
    assert_eq!(bytes(configure_and_count(3, "GRE-IP")), (751, 254), "GRE");
    assert_eq!(bytes(configure_and_count(3, "MPLS")), (575, 154), "MPLS");
    assert_eq!(bytes(configure_vlan_and_count(3)), (369, 146), "VLAN");
}

/// The NM counts its own messages, so what it counts does not depend on
/// the channel: discovering the three-router chain and reconciling one goal
/// on it costs the NM the same over the out-of-band mailboxes as over the
/// in-band flood, in every field, per-category maps included.
#[test]
fn the_nms_accounting_does_not_depend_on_the_channel() {
    fn cost<C: ManagementChannel>(channel: C) -> ChannelCounters {
        let mut t = managed_chain_with(3, channel);
        t.discover();
        t.mn.submit(t.vpn_goal());
        assert_eq!(t.mn.reconcile().active(), 1);
        t.mn.nm_counters()
    }
    let out_of_band = cost(OutOfBandChannel::new());
    assert!(out_of_band.sent > 0 && out_of_band.received > 0);
    assert_eq!(cost(InBandChannel::new()), out_of_band);
}

/// Every management message has the NM at one end: on a fault-free run
/// the recorder's message tap, which sees every message any device sends
/// or takes in, counts exactly what the NM sent plus what it received, in
/// each direction, in bytes and by category.
#[test]
fn every_management_message_has_the_nm_at_one_end() {
    let mut t = managed_chain(3);
    let recorder = Recorder::new();
    t.mn.set_recorder(recorder.clone());
    t.discover();
    t.mn.submit(t.vpn_goal());
    assert_eq!(t.mn.reconcile().active(), 1);

    let c = t.mn.nm_counters();
    let bytes = c.bytes_sent + c.bytes_received;
    assert!(bytes > 0);
    assert_eq!(recorder.counter("msg.sent.bytes"), bytes);
    assert_eq!(recorder.counter("msg.received.bytes"), bytes);
    let by = |map: &BTreeMap<MessageCategory, u64>, k| map.get(k).copied().unwrap_or(0);
    for k in c
        .sent_by_category
        .keys()
        .chain(c.received_by_category.keys())
    {
        let both = by(&c.sent_by_category, k) + by(&c.received_by_category, k);
        for dir in ["sent", "received"] {
            let metric = format!("msg.{dir}.{}", k.name());
            assert_eq!(recorder.counter(&metric), both, "{metric}");
        }
    }
}

/// NM messages in each relay category, received and sent.
fn relay_counts<C: ManagementChannel>(mn: &conman_core::runtime::ManagedNetwork<C>) -> (u64, u64) {
    let c = mn.nm_counters();
    let relays = |by: &std::collections::BTreeMap<MessageCategory, u64>| {
        [MessageCategory::ConveyMessage, MessageCategory::FieldQuery]
            .iter()
            .map(|k| by.get(k).copied().unwrap_or(0))
            .sum()
    };
    (relays(&c.received_by_category), relays(&c.sent_by_category))
}

/// A batched pass relays module envelopes as one message per (device,
/// round) in both directions, so what the NM receives follows the chain,
/// not the fleet: the same for 1, 16 and 64 goals, and as much as it sends.
/// Table VI's fire-and-forget flow on the same chain stays unbatched: one
/// message per envelope, up and down.
#[test]
fn a_batched_pass_costs_the_nm_the_same_messages_for_any_number_of_goals() {
    let flows: Vec<(u64, u64)> = [1, 16, 64]
        .into_iter()
        .map(|goals| {
            let mut t = managed_fanout_chain(6, goals);
            t.discover();
            t.mn.goals.limits = conman_bench::diagnosis::chain_limits(6);
            for k in 0..goals {
                t.mn.submit(t.fanout_goal(k));
            }
            t.mn.reset_counters();
            assert_eq!(t.mn.reconcile().active(), goals);
            let c = t.mn.nm_counters();
            (c.received, c.sent)
        })
        .collect();
    // Six stage and six commit answers, and ten relay batches each way:
    // the six devices commit in one wave, so their relay rounds overlap.
    assert_eq!(flows, [(22, 22); 3], "(received, sent)");

    let mut t = managed_fanout_chain(6, 1);
    t.discover();
    let goal = t.fanout_goal(0);
    let path = t.mn.nm.find_paths(&goal)[0].clone();
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    // The goal's twelve envelopes, each a message up and a message down.
    assert_eq!(relay_counts(&t.mn), (12, 12), "(received, sent)");
}

/// A test-only module that says arbitrary bytes.  On its first poll it sends
/// each of `says` to `peer`, with a kind that cycles through the three; it
/// keeps every body it hears, and an echoing one sends each back.
struct Babbler {
    me: ModuleRef,
    peer: ModuleRef,
    says: Vec<Vec<u8>>,
    echo: bool,
    heard: Heard,
}

impl ProtocolModule for Babbler {
    fn reference(&self) -> ModuleRef {
        self.me
    }
    fn descriptor(&self) -> ModuleAbstraction {
        ModuleAbstraction::empty(self.me)
    }
    fn handle_envelope(
        &mut self,
        _ctx: &mut ModuleCtx,
        env: &ModuleEnvelope,
    ) -> Result<ModuleReaction, ModuleError> {
        self.heard.lock().unwrap().push(env.body.clone());
        if !self.echo {
            return Ok(ModuleReaction::none());
        }
        Ok(ModuleReaction::envelope(ModuleEnvelope {
            from: self.me,
            to: env.from,
            pipe: env.pipe,
            kind: env.kind,
            body: env.body.clone(),
        }))
    }
    fn poll(&mut self, _ctx: &mut ModuleCtx) -> ModuleReaction {
        let kinds = [
            EnvelopeKind::Convey,
            EnvelopeKind::FieldQuery,
            EnvelopeKind::FieldResponse,
        ];
        ModuleReaction {
            envelopes: std::mem::take(&mut self.says)
                .into_iter()
                .zip(kinds.into_iter().cycle())
                .map(|(body, kind)| ModuleEnvelope {
                    from: self.me,
                    to: self.peer,
                    pipe: PipeId(0),
                    kind,
                    body,
                })
                .collect(),
            notifications: Vec::new(),
        }
    }
}

/// Hostile bodies: empty, NUL, a lone `{`, text that is JSON, a prefix that
/// looks like a `RelayBatch` frame, and every byte value.
fn hostile_bodies() -> Vec<Vec<u8>> {
    vec![
        vec![],
        vec![0x00],
        vec![0x7B],
        b"{\"hello\":true}".to_vec(),
        vec![0x86, 0xFF, 0xFF, 0xFF, 0xFF],
        (0x80..=0xFF).collect(),
        (0x00..=0xFF).rev().collect(),
    ]
}

/// The bodies one babbler heard, in arrival order.
type Heard = Arc<Mutex<Vec<Vec<u8>>>>;

/// The Figure 4 chain, discovered, with a babbler on the first core router
/// that says `hostile_bodies()` to an echoing one on the last.  Returns what
/// each of the two heard.
fn babbling_chain() -> (ManagedChain<OutOfBandChannel>, [Heard; 2]) {
    let mut t = managed_chain(3);
    t.discover();
    let (first, last) = (t.core[0], t.core[2]);
    let babbler = |device| ModuleRef::new(ModuleKind::App(4), ModuleId(900), device);
    let heard: [Heard; 2] = Default::default();
    for (device, peer, says, echo, heard) in [
        (first, last, hostile_bodies(), false, &heard[0]),
        (last, first, Vec::new(), true, &heard[1]),
    ] {
        let module = Babbler {
            me: babbler(device),
            peer: babbler(peer),
            says,
            echo,
            heard: Arc::clone(heard),
        };
        t.mn.agents
            .get_mut(&device)
            .unwrap()
            .register(Box::new(module));
    }
    (t, heard)
}

fn heard(side: &Heard) -> Vec<Vec<u8>> {
    side.lock().unwrap().clone()
}

/// The NM relays a module's body without reading it: arbitrary bytes arrive
/// byte for byte, in order, and both ways — alone in a `Module` message
/// through `execute_path`, and inside `RelayBatch`es through a batched pass
/// — and the NM counts the messages by their kind alone.
#[test]
fn the_nm_relays_any_body_byte_for_byte_and_counts_it_by_kind_alone() {
    let says = hostile_bodies();
    let n = says.len() as u64;

    let (mut t, [echoed, heard_back]) = babbling_chain();
    let goal = t.vpn_goal();
    let path =
        t.mn.nm
            .find_paths(&goal)
            .into_iter()
            .find(|p| p.technology_label() == "GRE-IP")
            .expect("GRE path");
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    assert_eq!(heard(&echoed), says);
    assert_eq!(heard(&heard_back), says);
    // Table VI for the goal at n = 3, plus every body up to the NM and down
    // again, both ways.
    assert_eq!(msgs(table6_counts(&t.mn)), (11 + 2 * n, 8 + 2 * n));

    let (mut t, [echoed, heard_back]) = babbling_chain();
    t.mn.submit(t.vpn_goal());
    t.mn.reset_counters();
    assert_eq!(t.mn.reconcile().active(), 1);
    assert_eq!(heard(&echoed), says);
    assert_eq!(heard(&heard_back), says);
    // What the same pass (an MPLS goal) costs the NM: the babble rides one
    // relay batch more each way than the goal's own three (its devices
    // commit in one wave), and the LSP's egress notifies.
    let c = t.mn.nm_counters();
    assert_eq!(
        c.received_by_category,
        BTreeMap::from([(Response, 6), (ConveyMessage, 4), (Notification, 1)]),
        "received"
    );
    assert_eq!(
        c.sent_by_category,
        BTreeMap::from([(Command, 6), (ConveyMessage, 4)]),
        "sent"
    );
}

#[test]
fn larger_chains_still_carry_traffic_after_configuration() {
    // The scaling sweep is only meaningful if the configured path actually
    // works for larger n as well.
    for n in [4usize, 6] {
        let mut t = managed_chain(n);
        t.discover();
        let goal = t.vpn_goal();
        let paths = t.mn.nm.find_paths(&goal);
        let path = paths
            .iter()
            .find(|p| p.technology_label() == "GRE-IP")
            .unwrap()
            .clone();
        t.mn.execute_path(&path, &goal);
        let (fwd, _) = t.send_site1_to_site2(b"scaled");
        let (rev, _) = t.send_site2_to_site1(b"scaled-back");
        assert!(fwd && rev, "GRE VPN works across {n} routers");
    }
}

/// Every agent's answer to `showPotential` — discovery's real traffic —
/// after it crossed the wire, checked to arrive whole.
fn advertised_over_the_wire(
    mn: &mut conman_core::runtime::ManagedNetwork<OutOfBandChannel>,
) -> Vec<ModuleAbstraction> {
    let ask = WireMessage::Script {
        request: 1,
        primitives: vec![Primitive::ShowPotential],
    };
    let mut advertised = Vec::new();
    for (id, agent) in mn.agents.iter_mut() {
        let device = mn.net.device_mut(*id).expect("managed device");
        for answer in agent.handle(device, &ask) {
            let crossed = WireMessage::decode(&answer.encode()).expect("an answer decodes");
            assert_eq!(crossed, answer);
            if let WireMessage::ScriptResult { results, .. } = crossed {
                for result in results {
                    if let Ok(PrimitiveResult::Potential(modules)) = result {
                        advertised.extend(modules);
                    }
                }
            }
        }
    }
    advertised
}

/// The `showPotential` answers of the Figure 4 chain and the Figure 9 VLAN
/// chain cross the wire whole, and between them they set every field of the
/// module abstraction that any module advertises, so each of those fields'
/// layouts is exercised on real data.  No module sets the last five; the
/// hand-built abstraction in `conman_core::wire`'s tests covers them.
#[test]
fn the_figure4_chains_show_potential_answers_cross_the_wire_whole() {
    let mut advertised = advertised_over_the_wire(&mut managed_chain(3).mn);
    advertised.extend(advertised_over_the_wire(&mut managed_vlan_chain(3).mn));
    let any = |set: fn(&ModuleAbstraction) -> bool| advertised.iter().any(set);
    let fields = [
        ("up_connectable", any(|a| !a.up_connectable.is_empty())),
        ("up_dependencies", any(|a| !a.up_dependencies.is_empty())),
        ("down_connectable", any(|a| !a.down_connectable.is_empty())),
        (
            "down_dependencies",
            any(|a| !a.down_dependencies.is_empty()),
        ),
        ("physical_pipes", any(|a| !a.physical_pipes.is_empty())),
        (
            "physical_pipes.link",
            any(|a| a.physical_pipes.iter().any(|p| p.link.is_some())),
        ),
        ("peerable", any(|a| !a.peerable.is_empty())),
        ("filter", any(|a| !a.filter.classifiers.is_empty())),
        ("switch.kinds", any(|a| !a.switch.kinds.is_empty())),
        (
            "switch.transparent_down_down",
            any(|a| a.switch.transparent_down_down),
        ),
        ("perf_reporting", any(|a| !a.perf_reporting.is_empty())),
        ("perf_tradeoffs", any(|a| !a.perf_tradeoffs.is_empty())),
        ("perf_enforcement", any(|a| !a.perf_enforcement.is_empty())),
        ("address_domain", any(|a| a.address_domain.is_some())),
        ("fast_forwarding", any(|a| a.fast_forwarding)),
        (
            "physical_pipes.broadcast",
            any(|a| a.physical_pipes.iter().any(|p| p.broadcast)),
        ),
        ("switch.multicast", any(|a| a.switch.multicast)),
        (
            "switch.state_source",
            any(|a| a.switch.state_source == SwitchStateSource::ProvidedExternally),
        ),
        (
            "security",
            any(|a| a.security.integrity || a.security.authenticity || a.security.confidentiality),
        ),
        (
            "security.external_state",
            any(|a| a.security.external_state.is_some()),
        ),
    ];
    let unset: Vec<&str> = fields
        .iter()
        .filter(|(_, set)| !set)
        .map(|(name, _)| *name)
        .collect();
    assert_eq!(
        unset,
        [
            "physical_pipes.broadcast",
            "switch.multicast",
            "switch.state_source",
            "security",
            "security.external_state",
        ]
    );
}
