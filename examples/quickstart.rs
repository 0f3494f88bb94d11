//! Quickstart: the whole CONMan loop in one page — declarative style.
//!
//! Build the paper's Figure 4 testbed (two customer sites across a
//! three-router ISP), let the NM discover the devices' module abstractions,
//! *declare* the high-level VPN goal (`submit`), inspect the NM's dry-run
//! `Plan`, and let `reconcile()` drive the network to the desired state
//! with a two-phase transaction.  Then verify that customer traffic
//! actually flows.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use conman::modules::managed_chain;

fn main() {
    // 1. Build the managed testbed (data plane + management agents + NM).
    let mut testbed = managed_chain(3);

    // 2. Devices announce their physical connectivity; the NM runs
    //    showPotential everywhere and builds its picture of the network.
    testbed.discover();
    println!("managed devices: {}", testbed.mn.nm.device_count());

    // 3. The human manager's goal: connectivity between the customer-facing
    //    interfaces of routers A and C for customer-1 site-1/site-2 traffic.
    //    Declaring it gives it an identity and a lifecycle — nothing is
    //    configured yet.
    let goal_id = testbed.mn.submit(testbed.vpn_goal());
    println!(
        "declared goal {goal_id}: {}",
        testbed.mn.goals.status(goal_id).unwrap()
    );

    // 4. Dry run: the NM enumerates protocol-sane module paths, picks the
    //    best one and generates its scripts — without sending a message.
    let plan = testbed.mn.plan_goal(goal_id).expect("a path exists");
    println!(
        "plan: {} over {} device(s), {} module(s) first-used",
        plan.path.technology_label(),
        plan.scripts.scripts.len(),
        plan.modules_created.len()
    );
    println!("scripts:\n{}", plan.scripts.render(&testbed.mn.nm));

    // 5. Reconcile: every stored goal is driven to its desired state.  The
    //    scripts execute as a two-phase transaction (stage everywhere,
    //    commit everywhere in one wave, roll back on any failure).
    let report = testbed.mn.reconcile();
    println!(
        "reconciled: goal is {} after {} transaction(s)",
        testbed.mn.goals.status(goal_id).unwrap(),
        report.transactions
    );

    // 6. Verify the data plane: a site-1 host sends a datagram to a site-2
    //    host and it arrives, encapsulated inside the ISP.
    let (delivered, encaps) = testbed.send_site1_to_site2(b"hello through the VPN");
    println!("delivered across the VPN: {delivered}");
    println!("frames observed leaving the ingress router:");
    for e in encaps.iter().take(4) {
        println!("  {e}");
    }
    assert!(delivered);

    // 7. Reconcile is idempotent: a converged network needs no messages.
    let report = testbed.mn.reconcile();
    println!(
        "second reconcile: {} transaction(s) (converged)",
        report.transactions
    );
    assert_eq!(report.transactions, 0);

    // 8. Ask every device what it holds (`showActual`): exactly what the
    //    goal claims, nothing staged, nothing left over.
    assert_eq!(testbed.mn.audit(), [], "no device holds residue");
    println!("device audit: every device holds exactly what the goal claims");
}
