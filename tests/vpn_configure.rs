//! End-to-end VPN configuration on the Figure 4 testbed: the NM executes the
//! CONMan scripts for the GRE-IP, MPLS and IP-IP paths and customer traffic
//! then flows between the two sites with the expected encapsulation — the
//! same check the authors performed on their Linux testbed.

use conman_modules::managed_chain;

fn configure(label: &str) -> (bool, bool, Vec<String>) {
    let mut t = managed_chain(3);
    t.discover();
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = paths
        .iter()
        .find(|p| p.technology_label() == label)
        .unwrap_or_else(|| panic!("path {label} exists"))
        .clone();
    let scripts = t.mn.execute_path(&path, &goal);
    assert!(!scripts.scripts.is_empty());
    let (fwd, trace) = t.send_site1_to_site2(b"site1->site2");
    let (rev, _) = t.send_site2_to_site1(b"site2->site1");
    (fwd, rev, trace)
}

#[test]
fn gre_path_carries_customer_traffic_with_gre_encapsulation() {
    let (fwd, rev, trace) = configure("GRE-IP");
    assert!(fwd, "site1 -> site2 delivery over the GRE tunnel");
    assert!(rev, "site2 -> site1 delivery over the GRE tunnel");
    // Frames leaving the ingress router towards the core must be
    // ETH / outer IP / GRE / customer IP.
    assert!(
        trace
            .iter()
            .any(|p| p.contains("GRE(key=") && p.contains("10.0.2.5")),
        "expected GRE encapsulation on the core link, saw: {trace:?}"
    );
}

#[test]
fn mpls_path_carries_customer_traffic_with_label_encapsulation() {
    let (fwd, rev, trace) = configure("MPLS");
    assert!(fwd, "site1 -> site2 delivery over the MPLS LSP");
    assert!(rev, "site2 -> site1 delivery over the MPLS LSP");
    assert!(
        trace.iter().any(|p| p.contains("MPLS(")),
        "expected MPLS labels on the core link, saw: {trace:?}"
    );
}

#[test]
fn ipip_path_carries_customer_traffic() {
    let (fwd, rev, trace) = configure("IP-IP");
    assert!(fwd, "site1 -> site2 delivery over the IP-IP tunnel");
    assert!(rev, "site2 -> site1 delivery over the IP-IP tunnel");
    assert!(
        trace
            .iter()
            .any(|p| p.contains("IP(204.9.168.1->204.9.169.1 IPIP)")),
        "expected IP-IP encapsulation on the core link, saw: {trace:?}"
    );
}

#[test]
fn without_configuration_no_customer_traffic_flows() {
    let mut t = managed_chain(3);
    t.discover();
    let (fwd, _) = t.send_site1_to_site2(b"should not arrive");
    assert!(
        !fwd,
        "the ISP does not carry customer traffic before the VPN is configured"
    );
}

#[test]
fn vlan_tunnel_carries_customer_frames() {
    let mut t = conman_modules::managed_vlan_chain(3);
    t.discover();
    let goal = t.vlan_goal();
    let paths = t.mn.nm.find_paths(&goal);
    assert!(
        !paths.is_empty(),
        "a VLAN path exists across the provider switches"
    );
    let path = paths
        .iter()
        .find(|p| p.technology_label().contains("VLAN"))
        .expect("VLAN path")
        .clone();
    t.mn.execute_path(&path, &goal);
    let (delivered, trace) = t.send_customer_frame(b"layer2 payload");
    assert!(delivered, "customer frame crosses the provider VLAN tunnel");
    assert!(
        trace.iter().any(|p| p.contains("VLAN(22)")),
        "expected the provider tag on the trunk, saw: {trace:?}"
    );
}

/// The packet trace keeps raw frames and summarises them when read; what a
/// reader sees after `clear_trace()` + one probe is, string for string, what
/// the eager per-frame summary used to record.
#[test]
fn protocol_paths_read_back_exactly_after_one_probe() {
    let (_, _, gre) = configure("GRE-IP");
    assert_eq!(
        gre,
        [
            "ETH/ARP",
            "ETH/ARP",
            "ETH/IP(204.9.168.1->204.9.169.1 GRE)/GRE(key=2859)/IP(10.0.1.5->10.0.2.5 UDP)/payload[20]",
        ]
    );
    let (_, _, mpls) = configure("MPLS");
    assert_eq!(
        mpls,
        [
            "ETH/ARP",
            "ETH/ARP",
            "ETH/MPLS(10102)/IP(10.0.1.5->10.0.2.5 UDP)/payload[20]",
        ]
    );

    let mut t = conman_modules::managed_vlan_chain(3);
    t.discover();
    let goal = t.vlan_goal();
    let path =
        t.mn.nm
            .find_paths(&goal)
            .into_iter()
            .find(|p| p.technology_label().contains("VLAN"))
            .expect("VLAN path");
    t.mn.execute_path(&path, &goal);
    let (_, vlan) = t.send_customer_frame(b"layer2 payload");
    assert_eq!(
        vlan,
        [
            "ETH/VLAN(22)/ARP",
            "ETH/ARP",
            "ETH/VLAN(22)/IP(10.0.0.1->10.0.0.2 UDP)/payload[22]",
        ]
    );
    // A second probe finds the neighbours resolved: the trace was cleared,
    // so only the data frame is in it.
    let (_, again) = t.send_customer_frame(b"layer2 payload");
    assert_eq!(
        again,
        ["ETH/VLAN(22)/IP(10.0.0.1->10.0.0.2 UDP)/payload[22]"]
    );
}
