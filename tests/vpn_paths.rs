//! Reproduction of §III-C.1: on the Figure 4 testbed the NM's path finder
//! was expected to produce 3 paths (IP-IP, GRE-IP, MPLS) but enumerated 9
//! (the extra six being combinations over MPLS segments).

use conman_modules::managed_chain;

#[test]
fn figure4_pathfinder_enumerates_exactly_nine_paths() {
    let mut t = managed_chain(3);
    t.discover();
    assert_eq!(t.mn.nm.device_count(), 3, "routers A, B, C announce");

    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let mut labels: Vec<String> = paths.iter().map(|p| p.technology_label()).collect();
    labels.sort();
    assert_eq!(
        paths.len(),
        9,
        "the paper's NM generated nine paths, got: {labels:?}"
    );

    // The three "expected" paths...
    assert!(labels.contains(&"IP-IP".to_string()));
    assert!(labels.contains(&"GRE-IP".to_string()));
    assert!(labels.contains(&"MPLS".to_string()));
    // ...and the six extra combinations over MPLS (full-path or one segment).
    assert_eq!(
        labels.iter().filter(|l| l.contains("over MPLS")).count(),
        6,
        "six additional MPLS-underlay combinations"
    );
    assert_eq!(labels.iter().filter(|l| *l == "IP-IP over MPLS").count(), 3);
    assert_eq!(
        labels.iter().filter(|l| *l == "GRE-IP over MPLS").count(),
        3
    );
}

#[test]
fn nm_prefers_the_mpls_path() {
    let mut t = managed_chain(3);
    t.discover();
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let chosen = t.mn.nm.choose_path(&paths).expect("a path is chosen");
    // §III-C.1: the MPLS-based path and the IP-IP tunnel instantiate the
    // fewest pipes; the NM prefers MPLS because of its forwarding-bandwidth
    // advertisement.
    assert_eq!(chosen.technology_label(), "MPLS");
    let ipip = paths
        .iter()
        .find(|p| p.technology_label() == "IP-IP")
        .unwrap();
    assert_eq!(chosen.pipe_count(), ipip.pipe_count());
    let gre = paths
        .iter()
        .find(|p| p.technology_label() == "GRE-IP")
        .unwrap();
    assert!(gre.pipe_count() > chosen.pipe_count());
}

/// The paper-style text is a view of the primitives: on the Figure 4 GRE,
/// MPLS and VLAN paths every script renders exactly one line per primitive,
/// in primitive order, and the n = 3 GRE rendering is Figure 7(b).
#[test]
fn figure4_scripts_render_one_line_per_primitive() {
    use conman::core::nm::{render_primitive, NetworkManager, ScriptSet};
    use conman::core::Primitive;
    use conman_modules::managed_vlan_chain;

    fn check(nm: &NetworkManager, scripts: &ScriptSet) {
        assert!(scripts.primitive_count() > 0);
        for ds in &scripts.scripts {
            let lines = ds.render(nm);
            assert_eq!(lines.len(), ds.primitives.len());
            for (line, p) in lines.iter().zip(&ds.primitives) {
                assert_eq!(line, &render_primitive(nm, p));
            }
        }
        // The teardown visits the devices in reverse path order, and each
        // device's deletes are its creates reversed.
        let teardown = scripts.teardown();
        assert_eq!(teardown.len(), scripts.scripts.len());
        for ((device, deletes), ds) in teardown.iter().zip(scripts.scripts.iter().rev()) {
            assert_eq!(*device, ds.device);
            let undone: Vec<Primitive> = ds
                .primitives
                .iter()
                .rev()
                .filter_map(Primitive::component)
                .map(Primitive::Delete)
                .collect();
            assert_eq!(deletes, &undone);
        }
        let text = scripts.render(nm);
        assert_eq!(
            text.lines().count(),
            scripts.scripts.len() + scripts.primitive_count(),
            "one header per device, one line per primitive:\n{text}"
        );
        assert_eq!(
            text.lines().filter(|l| l.starts_with("# ---- ")).count(),
            scripts.scripts.len()
        );
    }

    let mut t = managed_chain(3);
    t.discover();
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let labelled = |label: &str| {
        paths
            .iter()
            .find(|p| p.technology_label() == label)
            .unwrap()
    };
    let gre = t.mn.nm.generate_scripts(labelled("GRE-IP"), &goal);
    check(&t.mn.nm, &gre);
    check(&t.mn.nm, &t.mn.nm.generate_scripts(labelled("MPLS"), &goal));
    assert_eq!(
        gre.scripts[0].render(&t.mn.nm),
        [
            "P0 = create (pipe, <IP,A,m3>, <ETH,A,m1>, None, None, None)",
            "P1 = create (pipe, <IP,A,m3>, <GRE,A,m5>, <IP,C,m3>, <GRE,C,m5>, \
             trade-off: in-order delivery, trade-off: error-rate)",
            "P2 = create (pipe, <GRE,A,m5>, <IP,A,m4>, <GRE,C,m5>, <IP,C,m4>, None)",
            "P3 = create (pipe, <IP,A,m4>, <ETH,A,m2>, <IP,B,m3>, <ETH,B,m1>, None)",
            "create (switch, <IP,A,m3>, [P0, dst:C1-S2 => P1])",
            "create (switch, <IP,A,m3>, [P1 => P0, S1-gateway])",
            "create (switch, <GRE,A,m5>, P1, P2)",
            "create (switch, <IP,A,m4>, P2, P3)",
            "create (switch, <ETH,A,m2>, P3, P11)",
        ],
        "Figure 7(b), router A"
    );
    assert!(gre.render(&t.mn.nm).starts_with("# ---- Router A ----\n"));

    let mut v = managed_vlan_chain(3);
    v.discover();
    let goal = v.vlan_goal();
    let paths = v.mn.nm.find_paths(&goal);
    check(&v.mn.nm, &v.mn.nm.generate_scripts(&paths[0], &goal));
}

/// A spec carries what its module reads.  On the Figure 4 chain and the
/// 10-router fan-out chain, over the IP-IP, GRE-IP and MPLS paths, exactly
/// the four edge-IP rules (a classified and a gateway rule on each edge
/// router) carry a resolved value, each the goal's own; a pipe names modules
/// only, and no core router's encoded segment — as a `Script` or in a
/// `StageBatch` — contains a customer prefix, a gateway address or one of their names.  A VLAN goal's
/// script carries no value anywhere.
#[test]
fn only_the_four_edge_ip_rules_carry_a_resolved_value() {
    use conman::core::nm::{ConnectivityGoal, ScriptSet};
    use conman::core::primitives::{Primitive, ResolvedName, SwitchSpec};
    use conman::core::wire::encode_stage_batch;
    use conman::core::WireMessage;
    use conman_modules::{managed_fanout_chain, managed_vlan_chain};

    fn valued_rules(scripts: &ScriptSet, at: usize) -> Vec<&SwitchSpec> {
        scripts.scripts[at]
            .primitives
            .iter()
            .filter_map(|p| match p {
                Primitive::CreateSwitch(s)
                    if s.dst_class.is_some() || s.gateway.is_some() || s.local_prefix.is_some() =>
                {
                    Some(s)
                }
                _ => None,
            })
            .collect()
    }
    let named = |goal: &ConnectivityGoal, name: &String| {
        Some(ResolvedName {
            name: name.clone(),
            value: goal.resolved[name].clone(),
        })
    };
    let check_l3 = |scripts: &ScriptSet, goal: &ConnectivityGoal| {
        let last = scripts.scripts.len() - 1;
        for (at, dst, gateway, local) in [
            (0, &goal.dst_class, &goal.src_gateway, &goal.src_class),
            (last, &goal.src_class, &goal.dst_gateway, &goal.dst_class),
        ] {
            let rules = valued_rules(scripts, at);
            assert_eq!(rules.len(), 2, "a classified and a gateway rule per edge");
            assert_eq!(rules[0].dst_class, named(goal, dst));
            assert_eq!((&rules[0].gateway, &rules[0].local_prefix), (&None, &None));
            assert_eq!(rules[1].dst_class, None);
            assert_eq!(rules[1].gateway, named(goal, gateway));
            assert_eq!(rules[1].local_prefix.as_ref(), goal.resolved.get(local));
        }
        // Everything the goal names or resolves, as it would sit in a frame.
        let customer: Vec<&String> = goal.resolved.iter().flat_map(|(k, v)| [k, v]).collect();
        for (at, ds) in scripts.scripts.iter().enumerate().take(last).skip(1) {
            assert!(valued_rules(scripts, at).is_empty());
            let script = WireMessage::Script {
                request: 1,
                primitives: ds.primitives.clone(),
            }
            .encode();
            for frame in [encode_stage_batch(1, &[(1, &ds.primitives)]), script] {
                let frame = String::from_utf8_lossy(&frame);
                for s in &customer {
                    assert!(!frame.contains(*s), "core segment {at} carries {s}");
                }
            }
        }
    };

    let mut figure4 = managed_chain(3);
    figure4.discover();
    let mut chain10 = managed_fanout_chain(10, 1);
    chain10.discover();
    for (t, goal) in [
        (&figure4, figure4.vpn_goal()),
        (&chain10, chain10.fanout_goal(0)),
    ] {
        let paths = t.mn.nm.find_paths(&goal);
        for label in ["IP-IP", "GRE-IP", "MPLS"] {
            let path = paths
                .iter()
                .find(|p| p.technology_label() == label)
                .unwrap_or_else(|| panic!("path {label} exists"));
            let scripts = t.mn.nm.generate_scripts(path, &goal);
            assert_eq!(scripts.scripts.len(), t.core.len());
            check_l3(&scripts, &goal);
        }
    }

    for n in [3, 10] {
        let mut v = managed_vlan_chain(n);
        v.discover();
        let goal = v.vlan_goal();
        let scripts =
            v.mn.nm
                .generate_scripts(&v.mn.nm.find_paths(&goal)[0], &goal);
        assert!(scripts.primitive_count() > 0);
        for at in 0..scripts.scripts.len() {
            assert!(valued_rules(&scripts, at).is_empty());
        }
    }
}

/// The size the typed specs and the frame's device list buy, pinned: the
/// 10-router IP-IP goal is 54 primitives and stages, one binary
/// `StageBatch` per device, in under 1 200 B (1 142 B; 8 466 B while every
/// primitive carried the goal's name map, and the bound was 3 000 B while
/// every module ref wrote its device's eight bytes).
#[test]
fn ten_router_ipip_goal_stages_in_under_3000_bytes() {
    use conman::core::wire::encode_stage_batch;
    use conman_modules::managed_fanout_chain;

    let mut t = managed_fanout_chain(10, 1);
    t.discover();
    let goal = t.fanout_goal(0);
    let paths = t.mn.nm.find_paths(&goal);
    let ipip = paths
        .iter()
        .find(|p| p.technology_label() == "IP-IP")
        .expect("an IP-IP path");
    let scripts = t.mn.nm.generate_scripts(ipip, &goal);
    assert_eq!(scripts.primitive_count(), 54);
    let staged: usize = scripts
        .scripts
        .iter()
        .map(|ds| encode_stage_batch(1, &[(1, &ds.primitives)]).len())
        .sum();
    assert!(staged <= 1_200, "{staged} B staged for one goal");
}

/// The NM names both ends of every exchange: a pipe spec that names a far
/// pipe `q` on its peers' device finds there the spec of `q`, which names
/// it back, with the near pipe's modules as its peers.  Every spec with a
/// peer names a far pipe.  Checked on every path the NM finds for the
/// Figure 4 chain (GRE-IP, MPLS, IP-IP and the six over MPLS), the 2×3
/// mesh and the three-switch VLAN chain.
#[test]
fn every_named_far_pipe_names_its_pipe_back() {
    use conman::core::ids::PipeId;
    use conman::core::nm::{ConnectivityGoal, NetworkManager};
    use conman::core::primitives::{PipeSpec, Primitive};
    use conman::netsim::device::DeviceId;
    use conman_modules::{managed_mesh_fanout, managed_vlan_chain};
    use std::collections::{BTreeMap, BTreeSet};

    fn check(nm: &NetworkManager, goal: &ConnectivityGoal, labels: &mut BTreeSet<String>) {
        for path in nm.find_paths(goal) {
            let label = path.technology_label();
            let scripts = nm.generate_scripts(&path, goal);
            let specs: BTreeMap<(DeviceId, PipeId), &PipeSpec> = (scripts.scripts.iter())
                .flat_map(|ds| ds.primitives.iter().map(move |p| (ds.device, p)))
                .filter_map(|(device, p)| match p {
                    Primitive::CreatePipe(spec) => Some(((device, spec.pipe), spec)),
                    _ => None,
                })
                .collect();
            let mut named = 0;
            for (&(device, pipe), spec) in &specs {
                let peer = spec.peer_lower.as_ref().or(spec.peer_upper.as_ref());
                let Some(peer) = peer else {
                    assert_eq!(spec.peer_pipe, None, "{label}: {pipe} has no peer");
                    continue;
                };
                let far = spec
                    .peer_pipe
                    .unwrap_or_else(|| panic!("{label}: {pipe} names none"));
                let back = specs.get(&(peer.device, far));
                let back = back.unwrap_or_else(|| panic!("{label}: {pipe} names {far}, not made"));
                assert_eq!(
                    back.peer_pipe,
                    Some(pipe),
                    "{label}: {far} names {pipe} back"
                );
                let near = (Some(&spec.upper), Some(&spec.lower));
                let theirs = (back.peer_upper.as_ref(), back.peer_lower.as_ref());
                assert_eq!(
                    theirs, near,
                    "{label}: {far} on {} peers {pipe}",
                    peer.device
                );
                assert_ne!(
                    peer.device, device,
                    "{label}: {pipe}'s peer is on its own device"
                );
                named += 1;
            }
            assert!(named >= 2, "{label}: {named} named pipes");
            labels.insert(label);
        }
    }

    let mut labels = BTreeSet::new();
    let mut chain = managed_chain(3);
    chain.discover();
    check(&chain.mn.nm, &chain.vpn_goal(), &mut labels);
    for label in [
        "GRE-IP",
        "MPLS",
        "IP-IP",
        "GRE-IP over MPLS",
        "IP-IP over MPLS",
    ] {
        assert!(labels.contains(label), "{label} in {labels:?}");
    }
    let mut mesh = managed_mesh_fanout(3, 1);
    mesh.discover();
    check(&mesh.mn.nm, &mesh.vpn_goal(), &mut labels);
    let mut vlan = managed_vlan_chain(3);
    vlan.discover();
    check(&vlan.mn.nm, &vlan.vlan_goal(), &mut labels);
    assert!(labels.iter().any(|l| l.contains("VLAN")), "{labels:?}");
}
