//! Declarative multi-goal management: two concurrent VPN goals over one ISP.
//!
//! The dual-customer chain runs a second site pair behind the same customer
//! routers.  Both goals are declared up front; one `reconcile()` pass plans
//! and transactionally executes each of them in disjoint pipe-id blocks
//! while sharing the ISP core module instances.  Withdrawing one goal then
//! deletes only its own components — the reference-counted shared modules
//! keep carrying the survivor's traffic.
//!
//! ```text
//! cargo run --example goals
//! ```

use conman::modules::managed_dual_chain;

fn main() {
    let mut testbed = managed_dual_chain(3);
    testbed.discover();

    // Declare both customers' goals: same edge interfaces, different site
    // classes (customer 1: 10.0.1/10.0.2, customer 2: 10.0.3/10.0.4).
    let g1 = testbed.mn.submit(testbed.vpn_goal());
    let g2 = testbed.mn.submit(testbed.vpn_goal2());
    println!("declared {g1} and {g2}");

    // Dry-run the second goal before anything runs: every module would be a
    // first use.
    let plan = testbed.mn.plan_goal(g2).expect("path exists");
    println!(
        "pre-reconcile plan for {g2}: {} created / {} reused module(s)",
        plan.modules_created.len(),
        plan.modules_reused.len()
    );

    // One reconcile pass converges both goals.
    let report = testbed.mn.reconcile();
    println!(
        "reconcile: {} transaction(s), {} goal(s) active",
        report.transactions,
        report.active()
    );
    assert!(testbed.probe(), "customer 1 traffic flows");
    assert!(testbed.probe2(), "customer 2 traffic flows");

    // The goals share module instances: the store's reference counts say so,
    // and a fresh dry run reports the sharing.
    let shared = testbed
        .mn
        .goals
        .module_users()
        .iter()
        .filter(|(_, goals)| goals.len() == 2)
        .count();
    println!("module instances shared by both goals: {shared}");
    let plan = testbed.mn.plan_goal(g2).expect("path exists");
    println!(
        "post-reconcile plan for {g2}: {} created / {} reused module(s)",
        plan.modules_created.len(),
        plan.modules_reused.len()
    );

    // Withdraw customer 1: a transactional teardown of its components only.
    let outcome = testbed.mn.withdraw(g1);
    println!(
        "withdrew {g1}: {} delete primitive(s), {} module(s) released",
        outcome.teardown_primitives,
        outcome.released.len()
    );
    assert!(!testbed.probe(), "customer 1's VPN is gone");
    assert!(testbed.probe2(), "customer 2 is untouched");
    println!("customer 2 still carries traffic after the withdraw");
    assert_eq!(testbed.mn.audit(), [], "the withdraw leaves no residue");
    println!("device audit: nothing of customer 1 is left on any device");
}
