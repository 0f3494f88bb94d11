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

use conman_core::WireCodec;
use conman_modules::{managed_chain, managed_fanout_chain, managed_vlan_chain};
use mgmt_channel::MessageCategory;

fn nm_config_counts<C: mgmt_channel::ManagementChannel>(
    mn: &conman_core::runtime::ManagedNetwork<C>,
) -> (u64, u64) {
    let c = mn.nm_counters();
    let sent = [
        MessageCategory::Command,
        MessageCategory::ConveyMessage,
        MessageCategory::FieldQuery,
    ]
    .iter()
    .map(|k| c.sent_by_category.get(k).copied().unwrap_or(0))
    .sum();
    let received = [
        MessageCategory::ConveyMessage,
        MessageCategory::FieldQuery,
        MessageCategory::Notification,
    ]
    .iter()
    .map(|k| c.received_by_category.get(k).copied().unwrap_or(0))
    .sum();
    (sent, received)
}

fn run_l3(n: usize, label: &str) -> (u64, u64) {
    let mut t = managed_chain(n);
    t.discover();
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = paths
        .iter()
        .find(|p| p.technology_label() == label)
        .unwrap_or_else(|| panic!("{label} path exists for n={n}"))
        .clone();
    // Count only the configuration phase, as the paper does.
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    nm_config_counts(&t.mn)
}

fn run_vlan(n: usize) -> (u64, u64) {
    let mut t = managed_vlan_chain(n);
    t.discover();
    let goal = t.vlan_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = paths.first().expect("VLAN path exists").clone();
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    nm_config_counts(&t.mn)
}

#[test]
fn table6_gre_matches_the_papers_expressions() {
    for n in [3usize, 4, 6] {
        let (sent, received) = run_l3(n, "GRE-IP");
        assert_eq!(sent, (3 * n + 2) as u64, "GRE sent for n={n}");
        assert_eq!(received, (2 * n + 2) as u64, "GRE received for n={n}");
    }
}

#[test]
fn table6_mpls_matches_the_papers_expressions() {
    for n in [3usize, 4, 6] {
        let (sent, received) = run_l3(n, "MPLS");
        assert_eq!(sent, (3 * n - 2) as u64, "MPLS sent for n={n}");
        assert_eq!(received, (2 * n - 1) as u64, "MPLS received for n={n}");
    }
}

#[test]
fn table6_vlan_matches_the_papers_expressions() {
    for n in [3usize, 4, 6] {
        let (sent, received) = run_vlan(n);
        assert_eq!(sent, (3 * n - 2) as u64, "VLAN sent for n={n}");
        assert_eq!(received, (2 * n - 1) as u64, "VLAN received for n={n}");
    }
}

/// NM messages in each relay category, received and sent.
fn relay_counts<C: mgmt_channel::ManagementChannel>(
    mn: &conman_core::runtime::ManagedNetwork<C>,
) -> (u64, u64) {
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
/// not the fleet: the same for 1, 16 and 64 goals under either codec, and
/// as much as it sends.  Table VI's fire-and-forget flow on the same chain
/// stays unbatched: one message per envelope, up and down.
#[test]
fn a_batched_pass_costs_the_nm_the_same_messages_for_any_number_of_goals() {
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let flows: Vec<(u64, u64)> = [1, 16, 64]
            .into_iter()
            .map(|goals| {
                let mut t = managed_fanout_chain(6, goals);
                t.discover();
                t.mn.codec = codec;
                t.mn.goals.limits = conman_bench::diagnosis::chain_limits(6);
                for k in 0..goals {
                    t.mn.submit(t.fanout_goal(k));
                }
                t.mn.reset_counters();
                assert_eq!(t.mn.reconcile().active(), goals, "{codec:?}");
                let c = t.mn.nm_counters();
                (c.received, c.sent)
            })
            .collect();
        // Six stage and six commit answers, and eleven relay batches each way.
        assert_eq!(flows, [(23, 23); 3], "{codec:?}: (received, sent)");
    }

    let mut t = managed_fanout_chain(6, 1);
    t.discover();
    let goal = t.fanout_goal(0);
    let path = t.mn.nm.find_paths(&goal)[0].clone();
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    // The goal's twelve envelopes, each a message up and a message down.
    assert_eq!(relay_counts(&t.mn), (12, 12), "(received, sent)");
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
