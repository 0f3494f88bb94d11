//! What a converged fleet holds on the heap, pinned.
//!
//! This test binary installs conman-bench's counting allocator, so
//! `fleet_twin` reads the heap's peak and heap calls during its pass and the
//! bytes its network holds after it, by holder and, within the agents and
//! the network, by part; `experiments fleet` prints the same lines.

use conman_bench::held::Counting;
use conman_bench::{fleet_twin, FLEET_TWIN_GOALS};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The 64-goal twin of `fleet_cold` peaks under 15 900 heap bytes per goal
/// during its pass, over what was live when the pass started (14 445 B),
/// holds under 16 200 once it has converged (14 744 B: goal store 4 300,
/// agents 7 703, network 2 741), every part of the agents and the network
/// under its bound in [`AGENT_PARTS`] and [`NET_PARTS`], and makes under
/// 336 heap calls per goal in the pass (305.4).  Until an IP switch rule's
/// record derived its tables from its pipes, a route table's first route
/// took four slots and a tunnel kept a name nothing read, the pass peaked
/// at 17 370 B and made 323.4 calls, and the twin held 17 669 B (IP
/// `installed` 2 476, `rib.tables` 2 539, tunnels 426).  Until the strict
/// runner dropped its typed scripts as soon as the stage frames were sent,
/// before the stage round ran an agent, the pass peaked at 18 771 B.  Until
/// the IP module stopped keeping a rule that can never apply pending and
/// stopped naming its derived route tables, the pass peaked at 19 579 B
/// and made 353.7 calls, and the agents held 10 191 B and the network
/// 5 423 B.  While an applied plan kept its typed scripts (≈ 8.2 KB a goal,
/// 54 primitives) the goal store held 11 353 B, the total 26 967 B, and the
/// pass peaked at 27 223 B, during the commit wave.  The total was
/// 30 901 B while a `ModuleRef` was 40 B, because `ModuleKind::App` named
/// its protocol with a `String`, and 48 110 B while every IP pipe record
/// kept a clone of its `PipeSpec`, every ETH pipe the module at its other
/// end and a `Vec` of rule numbers, and every plan's scripts the growth
/// slack of `push`.  One test: the allocator counts every thread of the
/// binary.
#[test]
fn the_fleet_twin_peaks_under_15900_holds_under_16200_in_bounded_parts_calls_under_336_per_goal() {
    let twin = fleet_twin();
    let (held, peak) = (twin.held, twin.pass_peak / FLEET_TWIN_GOALS);
    let per_goal = held.total() / FLEET_TWIN_GOALS;
    assert!(per_goal > 0, "the counting allocator is installed");
    assert!(
        per_goal < 16_200,
        "{per_goal} B held per goal after the pass ({held:?})"
    );
    assert!(peak < 15_900, "{peak} B per goal at the pass's peak");
    let calls = twin.pass_allocs.calls / FLEET_TWIN_GOALS;
    assert!(calls < 336, "{calls} heap calls per goal in the pass");
    within(held.agents, &held.agent_parts, &AGENT_PARTS);
    within(held.net, &held.net_parts, &NET_PARTS);
}

/// The most heap bytes per goal each part of the agents may hold: about
/// 10% over the reading (`held-transaction table` 662.50, `blackboard`
/// 2 168, `agent` 65.09; ETH `pipes` 205, `switch_rules` 567,
/// `rules_of_pipe` 1 215, the rest 50; IP `installed` 734, `exchanges`
/// 1 102.88, `pipes` 558, `adjacency_pipes` 224, `main_route_users`
/// 71.12, the rest 50.25; MPLS 26.25; GRE 4.25).  A converged twin holds
/// no pending switch rule and no filter.
const AGENT_PARTS: [(&str, usize); 17] = [
    ("held-transaction table", 730),
    ("blackboard", 2_390),
    ("agent", 72),
    ("ETH pipes", 226),
    ("ETH switch_rules", 624),
    ("ETH rules_of_pipe", 1_340),
    ("ETH", 55),
    ("IP installed", 808),
    ("IP exchanges", 1_215),
    ("IP pipes", 614),
    ("IP adjacency_pipes", 247),
    ("IP pending_switches", 0),
    ("IP main_route_users", 79),
    ("IP filters", 0),
    ("IP", 56),
    ("MPLS", 29),
    ("GRE", 5),
];

/// The same for the network's parts, over the reading (`rib.tables`
/// 1 459, `rib.rules` 376, `tunnels` 323, `rest` 583.08).
const NET_PARTS: [(&str, usize); 4] = [
    ("rib.tables", 1_605),
    ("rib.rules", 414),
    ("tunnels", 356),
    ("rest", 642),
];

/// Every part of a holder is bounded, in B a goal, and the parts add up
/// to the holder's bytes.
fn within(total: usize, parts: &[(String, usize)], bounds: &[(&str, usize)]) {
    let sum: usize = parts.iter().map(|(_, bytes)| bytes).sum();
    assert_eq!(sum, total, "the parts add up to their holder ({parts:?})");
    for (part, bytes) in parts {
        let bound = bounds.iter().find(|(name, _)| name == part);
        let (_, bound) = bound.unwrap_or_else(|| panic!("{part} has no bound"));
        let per_goal = bytes / FLEET_TWIN_GOALS;
        assert!(per_goal <= *bound, "{part}: {per_goal} B a goal");
    }
}
