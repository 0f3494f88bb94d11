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
