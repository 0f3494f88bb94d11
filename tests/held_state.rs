//! What a converged fleet holds on the heap, pinned.
//!
//! This test binary installs conman-bench's counting allocator, so
//! `fleet_twin` reads the heap's peak during its pass and the bytes its
//! network holds after it, by holder; `experiments fleet` prints the same
//! two lines.

use conman_bench::held::Counting;
use conman_bench::{fleet_twin, FLEET_TWIN_GOALS};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The 64-goal twin of `fleet_cold` peaks under 21 600 heap bytes per goal
/// during its pass, over what was live when the pass started (19 659 B), and
/// holds under 21 900 once it has converged (19 914 B: goal store 4 300,
/// agents 10 191, network 5 423).  While an applied plan kept its typed
/// scripts (≈ 8.2 KB a goal, 54 primitives) the goal store held 11 353 B,
/// the total 26 967 B, and the pass peaked at 27 223 B, during the commit
/// wave.  The total was 30 901 B while a `ModuleRef` was 40 B, because
/// `ModuleKind::App` named its protocol with a `String`, and 48 110 B while
/// every IP pipe record kept a clone of its `PipeSpec`, every ETH pipe the
/// module at its other end and a `Vec` of rule numbers, and every plan's
/// scripts the growth slack of `push`.  One test: the allocator counts
/// every thread of the binary.
#[test]
fn the_fleet_twin_peaks_under_21600_and_holds_under_21900_bytes_per_goal() {
    let twin = fleet_twin();
    let (held, peak) = (twin.held, twin.pass_peak / FLEET_TWIN_GOALS);
    let per_goal = held.total() / FLEET_TWIN_GOALS;
    assert!(per_goal > 0, "the counting allocator is installed");
    assert!(
        per_goal < 21_900,
        "{per_goal} B held per goal after the pass ({held:?})"
    );
    assert!(peak < 21_600, "{peak} B per goal at the pass's peak");
}
