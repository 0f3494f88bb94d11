//! Debugging with CONMan (§III-C.2), now as a closed loop: configure the
//! VPN, inject a fault, let the `Diagnoser` localise it from counter deltas
//! along the configured path, then heal the way the control loop does —
//! mark the goal degraded with the suspects excluded and let
//! `reconcile_with` re-plan, execute and verify the repair end to end.
//!
//! ```text
//! cargo run --example debugging
//! ```

use conman::core::nm::GoalStatus;
use conman::diagnose::{Diagnoser, Healer};
use conman::modules::managed_chain;
use conman::netsim::fault::{apply_fault, FaultKind, Misconfiguration};

fn main() {
    let mut testbed = managed_chain(3);
    testbed.discover();
    let goal = testbed.vpn_goal();
    let paths = testbed.mn.nm.find_paths(&goal);
    let gre = paths
        .iter()
        .find(|p| p.technology_label() == "GRE-IP")
        .expect("GRE path exists")
        .clone();
    // Force the GRE variant (the NM would pick MPLS): store the goal, plan
    // it over the chosen path, execute the plan as a transaction.
    let id = testbed.mn.submit(goal);
    let plan = testbed.mn.plan_for_path(id, &gre).expect("GRE path plans");
    testbed.mn.execute_plan(plan).expect("GRE plan commits");
    println!(
        "configured: {} across {} routers",
        gre.technology_label(),
        testbed.core.len()
    );

    // Healthy VPN.
    let ok = testbed.probe();
    println!("before fault: delivered = {ok}");

    // Fault injection: corrupt the GRE receive key on the egress router —
    // the classic silent misconfiguration the paper cites.  Only counters
    // can reveal it: the topology map still looks perfect.
    let egress = *testbed.core.last().expect("chain has routers");
    apply_fault(
        &mut testbed.mn.net,
        FaultKind::Misconfigure(Misconfiguration::CorruptGreKey {
            device: egress,
            delta: 17,
        }),
    );
    println!(
        "\ninjected: GRE ikey corrupted on router {}",
        testbed.mn.nm.device_alias(egress)
    );

    // Diagnosis: probe end to end, snapshot the goal's flow counters and
    // each module's drop-reason counts along the configured module path,
    // and localise from the deltas.
    let mut probe = testbed.probe_fn();
    let report = Diagnoser::default().diagnose(&mut testbed.mn, &gre, &mut probe);
    println!(
        "\ndiagnosis: {}/{} probes delivered",
        report.probes_delivered, report.probes_sent
    );
    for s in &report.suspects {
        println!("  suspect ({:>3}%): {:?}", s.confidence_pct, s.target);
        for (reason, count) in &s.evidence {
            println!("           {reason:?} drops +{count}");
        }
    }
    let prime = report.prime_suspect().expect("a suspect was found");
    assert!(
        matches!(&prime.target, conman::diagnose::SuspectTarget::Module(m) if m.device == egress),
        "the egress GRE module should be blamed"
    );

    // Self-healing: mark the goal degraded with the suspects excluded; the
    // reconciler tears the GRE path down, re-plans around the suspect,
    // executes the alternative and verifies it with the probe.
    let excluded = Healer::exclusions(&testbed.mn, &report);
    println!(
        "\nself-healing: re-planning around {} exclusion(s)",
        excluded.len()
    );
    testbed.mn.goals.mark_degraded(id, excluded);
    let pass = testbed.mn.reconcile_with(|mn, _| Some(probe(mn)));
    let outcome = pass.outcome(id).expect("the goal was reconciled");
    let replacement = testbed.mn.goals.get(id).and_then(|r| r.applied());
    println!(
        "  {:?} in {} transaction(s); replacement = {}",
        outcome.action,
        pass.transactions,
        replacement.map_or("none".into(), |a| a.path.technology_label()),
    );
    assert_eq!(
        outcome.status,
        GoalStatus::Active,
        "the NM must route around the corrupted module"
    );

    let after = testbed.probe();
    println!("after repair: delivered = {after}");
    assert!(after);
    assert_eq!(testbed.mn.audit(), [], "the repair leaves no residue");
    println!("device audit: every device holds exactly what the goal claims");
    println!("\n(the paper, §III-C: the NM \"can systematically debug the configuration\n problem by determining the status of each module in the path\" — here it\n also repaired it.)");
}
