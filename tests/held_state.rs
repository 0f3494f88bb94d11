//! What a converged fleet holds on the heap, pinned.
//!
//! This test binary installs conman-bench's counting allocator, so
//! `fleet_twin` reads the heap's peak and heap calls during its pass and the
//! bytes its network holds after it, by holder; `experiments fleet` prints
//! the same three lines.

use conman_bench::held::Counting;
use conman_bench::{fleet_twin, FLEET_TWIN_GOALS};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The 64-goal twin of `fleet_cold` peaks under 19 100 heap bytes per goal
/// during its pass, over what was live when the pass started (17 346 B),
/// holds under 19 450 once it has converged (17 669 B: goal store 4 300,
/// agents 9 445, network 3 924) and makes under 340 heap calls per goal in
/// the pass (322.8).  Until the strict runner dropped its typed scripts as
/// soon as the stage frames were sent, before the stage round ran an
/// agent, the pass peaked at 18 771 B.  Until the IP module stopped
/// keeping a rule that can never apply pending and stopped naming its
/// derived route tables, the pass peaked at 19 579 B and made 353.7
/// calls, and the agents held 10 191 B and the network 5 423 B.  While an applied plan kept its typed
/// scripts (≈ 8.2 KB a goal, 54 primitives) the goal store held 11 353 B,
/// the total 26 967 B, and the pass peaked at 27 223 B, during the commit
/// wave.  The total was 30 901 B while a `ModuleRef` was 40 B, because
/// `ModuleKind::App` named its protocol with a `String`, and 48 110 B while
/// every IP pipe record kept a clone of its `PipeSpec`, every ETH pipe the
/// module at its other end and a `Vec` of rule numbers, and every plan's
/// scripts the growth slack of `push`.  One test: the allocator counts
/// every thread of the binary.
#[test]
fn the_fleet_twin_peaks_under_19100_holds_under_19450_and_calls_under_340_per_goal() {
    let twin = fleet_twin();
    let (held, peak) = (twin.held, twin.pass_peak / FLEET_TWIN_GOALS);
    let per_goal = held.total() / FLEET_TWIN_GOALS;
    assert!(per_goal > 0, "the counting allocator is installed");
    assert!(
        per_goal < 19_450,
        "{per_goal} B held per goal after the pass ({held:?})"
    );
    assert!(peak < 19_100, "{peak} B per goal at the pass's peak");
    let calls = twin.pass_allocs.calls / FLEET_TWIN_GOALS;
    assert!(calls < 340, "{calls} heap calls per goal in the pass");
}
