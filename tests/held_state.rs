//! What a converged fleet holds on the heap, pinned.
//!
//! This test binary installs conman-bench's counting allocator, so
//! `fleet_twin` reads the heap bytes its network holds after the pass, by
//! holder; `experiments fleet` prints the same line.

use conman_bench::held::Counting;
use conman_bench::{fleet_twin, FLEET_TWIN_GOALS};

#[global_allocator]
static ALLOC: Counting = Counting;

/// The 64-goal twin of `fleet_cold` holds under 29 700 heap bytes per goal
/// once its pass has converged (26 967 B: goal store 11 353, agents 10 191,
/// network 5 423).  It held 30 901 B while a `ModuleRef` was 40 B, because
/// `ModuleKind::App` named its protocol with a `String`, and 48 110 B while
/// every IP pipe record kept a clone of its `PipeSpec`, every ETH pipe the
/// module at its other end and a `Vec` of rule numbers, and every plan's
/// scripts the growth slack of `push`.
#[test]
fn a_converged_fleet_holds_under_29700_bytes_per_goal() {
    let (_, _, held) = fleet_twin();
    let per_goal = held.total() / FLEET_TWIN_GOALS;
    assert!(per_goal > 0, "the counting allocator is installed");
    assert!(
        per_goal < 29_700,
        "{per_goal} B held per goal after the pass ({held:?})"
    );
}
