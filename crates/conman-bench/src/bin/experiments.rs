//! Reproduction harness: regenerates every table and figure of the paper's
//! evaluation from the simulated testbeds.
//!
//! ```text
//! cargo run -p conman-bench --bin experiments            # everything
//! cargo run -p conman-bench --bin experiments table5     # one artefact
//! ```

use conman_bench::{
    closed_loop_run, configure_and_count, configure_vlan_and_count, discovered_chain,
    discovered_vlan_chain, fleet_twin, loop_run, loop_run_inband, mesh_loop_run, path_labelled,
    DiagnosisScenario, FleetTwin, LoopBenchReport, LoopScenario, NmCost, FLEET_TWIN_CHAIN_N,
    FLEET_TWIN_GOALS,
};
use conman_core::ids::ModuleKind;
use legacy_config::{
    classify_conman_script, gre_script_today, mpls_script_today, vlan_script_today, GreVpnParams,
};

// Counts live heap bytes and heap calls, so `experiments fleet` can print
// what the converged twin holds and `experiments loop` what a quiet tick
// allocates.
#[global_allocator]
static ALLOC: conman_bench::held::Counting = conman_bench::held::Counting;

/// The names an artefact answers to on the command line, and its generator.
type Artefact = (&'static [&'static str], fn());

/// Every artefact, in the order `all` prints them.
const ARTEFACTS: [Artefact; 11] = [
    (&["table1"], table1),
    (&["table2", "table3"], table2_and_3),
    (&["table4", "figure4", "figure5"], table4_figure4_figure5),
    (&["figure6", "figure4_paths"], figure6_paths),
    (&["figure2_3"], figure2_3),
    (
        &["figure7", "figure8", "figure9", "table5"],
        figures7_8_9_table5,
    ),
    (&["table6"], table6),
    (&["fleet"], fleet),
    (&["diagnosis"], diagnosis),
    (&["loop"], autonomic_loop),
    (&["obs"], obs),
];

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let mut ran = false;
    for (names, run) in ARTEFACTS {
        if which == "all" || names.contains(&which.as_str()) {
            run();
            ran = true;
        }
    }
    if !ran {
        let names: Vec<&str> = ARTEFACTS
            .iter()
            .flat_map(|(n, _)| n.iter().copied())
            .collect();
        eprintln!(
            "unknown artefact `{which}`; accepted: all {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
}

fn heading(s: &str) {
    println!("\n==================================================================");
    println!("{s}");
    println!("==================================================================");
}

fn table1() {
    heading("Table I — CONMan primitives");
    for (name, caller, callee) in [
        ("showPotential", "NM", "MA of device"),
        ("showActual", "NM", "MA of device"),
        ("create / delete", "NM", "MA of device"),
        (
            "conveyMessage",
            "Module (source)",
            "Module (destination), relayed via NM",
        ),
        (
            "listFieldsAndValues",
            "Module (inspecting)",
            "Module (target), relayed via NM",
        ),
    ] {
        println!("{name:22} {caller:22} {callee}");
    }
}

fn table2_and_3() {
    heading("Table II / Table III — module abstraction; GRE module as advertised by showPotential");
    let t = discovered_chain(3);
    let a_id = t.core[0];
    let gre =
        t.mn.nm
            .find_module(a_id, &ModuleKind::Gre)
            .expect("GRE module on router A");
    let abs = t.mn.nm.abstraction_of(&gre).expect("abstraction recorded");
    for (k, v) in abs.as_table() {
        println!("{k:20} {v}");
    }
}

fn table4_figure4_figure5() {
    heading("Figure 4 — testbed and module map / Table IV — device A capabilities / Figure 5 — potential-connectivity sub-graph");
    let t = discovered_chain(3);
    println!("Managed devices (ISP): {}", t.mn.nm.device_count());
    for (dev, name) in &t.mn.nm.device_names {
        let modules = &t.mn.nm.abstractions[dev];
        let kinds: Vec<String> = modules.iter().map(|m| m.name.kind.to_string()).collect();
        println!("  {name:10} modules: {}", kinds.join(", "));
    }
    println!("\nTable IV — connectivity and switching of device A's modules:");
    let a_id = t.core[0];
    for m in &t.mn.nm.abstractions[&a_id] {
        println!(
            "  {:28} Up: {:18} Down: {:26} Phy: {:8} Switching: {}",
            m.name.to_string(),
            m.up_connectable
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(","),
            m.down_connectable
                .iter()
                .map(|k| k.to_string())
                .collect::<Vec<_>>()
                .join(","),
            if m.physical_pipes.is_empty() {
                "None".into()
            } else {
                format!("port{}", m.physical_pipes[0].port.0)
            },
            m.switch
                .kinds
                .iter()
                .map(|k| k.notation())
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    println!("\nFigure 5 — potential-connectivity sub-graph of device A:");
    let graph = t.mn.nm.build_graph();
    for line in graph.render_device_subgraph(a_id) {
        println!("  {line}");
    }
}

fn figure6_paths() {
    heading("§III-C.1 / Figure 6 — path enumeration for the VPN goal (expected 3, the NM finds 9)");
    let t = discovered_chain(3);
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    println!("paths found: {}", paths.len());
    for (i, p) in paths.iter().enumerate() {
        println!(
            "  ({:2}) {:22} pipes={:2}  modules: {}",
            i + 1,
            p.technology_label(),
            p.pipe_count(),
            p.steps
                .iter()
                .map(|s| format!(
                    "{}:{}",
                    s.module.kind,
                    t.mn.nm.device_alias(s.module.device)
                ))
                .collect::<Vec<_>>()
                .join(" -> ")
        );
    }
    let chosen = t.mn.nm.choose_path(&paths).unwrap();
    println!(
        "NM's choice (fewest pipes, fast forwarding preferred): {}",
        chosen.technology_label()
    );
}

fn figure2_3() {
    heading("Figures 2 & 3 — GRE tunnel establishment and the conveyMessage sequence");
    // The paper's Figure 2 places the tunnel endpoints on end hosts whose
    // application originates the traffic; our path finder models traffic
    // entering through a customer-facing interface, so we demonstrate the
    // same §III-B establishment on the degenerate two-edge-router chain
    // (tunnel endpoints directly adjacent, exactly Figure 2's A--D--B shape
    // with the ISP hop collapsed).  The module abstractions of the Figure 2
    // testbed itself are discovered below for completeness.
    let mut f2 = conman_modules::managed_figure2();
    f2.discover();
    println!(
        "Figure 2 testbed discovered: {} managed devices (A, B, layer-2 switch C, router D)",
        f2.mn.nm.device_count()
    );

    let mut t = discovered_chain(2);
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let gre = path_labelled(&paths, "GRE-IP");
    let scripts = t.mn.nm.generate_scripts(&gre, &goal);
    println!("\nCONMan script generated by the NM (cf. the six commands of §III-B):");
    print!("{}", scripts.render(&t.mn.nm));
    t.mn.reset_counters();
    t.mn.execute_path(&gre, &goal);
    let c = t.mn.nm_counters();
    println!("\nFigure 3 message sequence as seen by the NM (configuration phase):");
    for (k, v) in &c.sent_by_category {
        println!(
            "  sent     {:?}: {} ({} B)",
            k, v, c.bytes_sent_by_category[k]
        );
    }
    for (k, v) in &c.received_by_category {
        println!(
            "  received {:?}: {} ({} B)",
            k, v, c.bytes_received_by_category[k]
        );
    }
    let (fwd, _) = t.send_site1_to_site2(b"fig2 check");
    println!("customer traffic delivered over the established tunnel: {fwd}");
}

fn figures7_8_9_table5() {
    heading("Figures 7, 8, 9 — configuration today vs CONMan; Table V — generic vs protocol-specific counts");
    let mut rows = Vec::new();

    // GRE.
    let t = discovered_chain(3);
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    for (label, today) in [
        (
            "GRE-IP",
            gre_script_today(&GreVpnParams::figure7_router_a()),
        ),
        ("MPLS", mpls_script_today()),
    ] {
        let path = path_labelled(&paths, label);
        let scripts = t.mn.nm.generate_scripts(&path, &goal);
        let router_a = scripts.scripts[0].render(&t.mn.nm);
        println!("\n--- {} : configuration today (router A) ---", label);
        println!("{}", today.text());
        println!(
            "--- {} : CONMan configuration (router A, generated by the NM) ---",
            label
        );
        for l in &router_a {
            println!("{l}");
        }
        let conman = classify_conman_script(&router_a);
        rows.push((label.to_string(), today.counts(), conman.counts()));
    }

    // VLAN.
    let v = discovered_vlan_chain(3);
    let goal = v.vlan_goal();
    let paths = v.mn.nm.find_paths(&goal);
    let path = paths.first().expect("VLAN path").clone();
    let scripts = v.mn.nm.generate_scripts(&path, &goal);
    let today = vlan_script_today();
    println!("\n--- VLAN : configuration today (CatOS, switch A) ---");
    println!("{}", today.text());
    println!("--- VLAN : CONMan configuration (switch A, generated by the NM) ---");
    let switch_a = scripts.scripts[0].render(&v.mn.nm);
    for l in &switch_a {
        println!("{l}");
    }
    rows.push((
        "VLAN".to_string(),
        today.counts(),
        classify_conman_script(&switch_a).counts(),
    ));

    println!("\nTable V — commands and state variables, Today (T) vs CONMan (C):");
    println!("{:22} {:>6} {:>6} {:>6} {:>6}", "", "T", "C", "", "");
    println!(
        "{:22} {:>6} {:>6}",
        "scenario", "gen/spec cmds", "gen/spec vars"
    );
    for (label, t_counts, c_counts) in rows {
        println!(
            "{label:10} today : {:>2} generic cmds, {:>2} specific cmds, {:>2} generic vars, {:>2} specific vars",
            t_counts.generic_commands, t_counts.specific_commands, t_counts.generic_variables, t_counts.specific_variables
        );
        println!(
            "{label:10} conman: {:>2} generic cmds, {:>2} specific cmds, {:>2} generic vars, {:>2} specific vars",
            c_counts.generic_commands, c_counts.specific_commands, c_counts.generic_variables, c_counts.specific_variables
        );
    }
    println!("(paper, Table V: GRE T=1/6/9/11 C=2/0/21/2; MPLS T=1/6/6/8 C=2/0/18/2; VLAN T=3/4/3/5 C=2/0/14/1)");
}

fn diagnosis() {
    heading("Diagnosis closed loop — time-to-detect / time-to-repair (conman-diagnose, beyond the paper)");
    println!("The primary technology is forced (submit + plan_for_path + execute_plan), the fault");
    println!("lands half a 100ms tick later; the ControlLoop's health round detects it, the");
    println!(
        "AutonomicClient localises it from per-goal flow deltas, and reconcile_with repairs it:"
    );
    println!("re-plan excluding the suspects (reinstall through them when nothing avoids them),");
    println!("execute, verify end to end.\n");
    // The GRE-IP primary is only enumerable on the Figure 4 chain (at
    // larger n the bounded search fills up with MPLS-segment variants
    // first); the routing-loss fault only blackholes the tunnel from 4
    // routers up.
    let rows = [
        (DiagnosisScenario::EgressGreKeyCorruption, &[3usize][..]),
        (DiagnosisScenario::MidRouterRoutingLoss, &[4, 10, 50][..]),
        (DiagnosisScenario::CoreLinkCut, &[3, 10, 50][..]),
    ];
    for (scenario, sizes) in rows {
        for &n in sizes {
            let r = closed_loop_run(n, scenario);
            println!("{}", r.render());
            assert_eq!(
                r.healed(),
                scenario != DiagnosisScenario::CoreLinkCut,
                "only the chain link cut has nothing to heal onto: {r:?}"
            );
        }
    }
}

fn autonomic_loop() {
    heading("Autonomic control loop — ticks-to-detect / ticks-to-repair on the 10-router chain and the 2x3 multipath mesh (beyond the paper)");
    println!("Every goal is backed by a real customer host pair; the event-driven loop");
    println!("health-probes each goal per 100ms tick inside its flow-attribution window,");
    println!("localises faults from per-goal FlowCounters deltas under the other goals'");
    println!("live traffic, and repairs everything needing work in one batched pass.");
    println!("On the mesh a blamed core *link* is rerouted around in ONE repair attempt");
    println!("(no budget burn); a converged tick sends ZERO management messages.\n");
    let header = || {
        println!(
            "{:>22} {:>8} {:>6} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>7} {:>10} {:>14} {:>12} {:>16} {:>13} {:>12}",
            "scenario",
            "channel",
            "goals",
            "setup",
            "quiet-NM",
            "degraded",
            "detect-tk",
            "repair-tk",
            "blamed",
            "passes",
            "failed",
            "repair-NM",
            "repair-NM-recv",
            "repair-NM-B",
            "repair-NM-recv-B",
            "quiet-lookups",
            "quiet-allocs"
        );
    };
    header();
    let print_row = |r: &LoopBenchReport| {
        println!(
            "{:>22} {:>8} {:>6} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>7} {:>10} {:>14} {:>12} {:>16} {:>13} {:>12}",
            r.scenario.name(),
            r.channel,
            r.goals,
            r.setup_ticks,
            r.quiescent_nm_sent,
            r.degraded_goals,
            r.ticks_to_detect,
            r.ticks_to_repair,
            r.blamed_correct,
            r.repair_passes,
            r.failed_attempts,
            r.repair.nm.sent,
            r.repair.nm.received,
            r.repair.nm.bytes_sent,
            r.repair.nm.bytes_received,
            r.quiet_lookup_work,
            r.quiet_allocs,
        );
    };
    let mut rows = Vec::new();
    for scenario in [LoopScenario::CoreStateLoss, LoopScenario::PerGoalTableFlush] {
        for goals in [8usize, 64, 256] {
            let r = loop_run(10, goals, scenario);
            print_row(&r);
            rows.push(r.clone());
            // The smoke gates CI enforces: converged, silent when
            // quiescent, the right device blamed, repair within budget.
            conman_bench::assert_loop_healthy(&r, 3);
            if scenario == LoopScenario::PerGoalTableFlush {
                assert_eq!(
                    r.degraded_goals, 1,
                    "a per-goal fault must degrade exactly one goal (localisation under background traffic)"
                );
            } else {
                assert_eq!(
                    r.degraded_goals, r.goals,
                    "the core fault hits the whole fleet"
                );
            }
        }
    }
    // Mesh rows: a blamed core link has a genuine alternative, so the smoke
    // gate is the one-pass reroute — exactly one batched pass, zero failed
    // attempts, the *link* (not just a device) blamed.
    for scenario in [LoopScenario::MeshLinkCut, LoopScenario::MeshLinkLoss] {
        for goals in [8usize, 64, 256] {
            let r = mesh_loop_run(3, goals, scenario);
            print_row(&r);
            rows.push(r.clone());
            conman_bench::assert_one_pass_reroute(&r);
            assert_eq!(
                r.degraded_goals, r.goals,
                "every goal crossed the dead link"
            );
        }
    }
    // The in-band message-budget row: the loop over the flooding channel
    // must stay silent when quiescent, and the row shows what the faulty
    // ticks' flooded telemetry cost.
    let r = loop_run_inband(10, 8, LoopScenario::CoreStateLoss);
    print_row(&r);
    conman_bench::assert_loop_healthy(&r, 3);
    rows.push(r);

    // The probes are data-plane traffic, not management: their frames are
    // listed apart from the NM's messages and bytes above.
    println!("\nProbe frames and their bytes, one quiet tick and detection to repair (the");
    println!("in-band row's repair-frames also count every flooded copy of its management");
    println!("messages; the data-plane port counters leave those copies' bytes out, the");
    println!("channel counts them as inband.bytes_flooded, and the row ends with them):");
    println!(
        "{:>22} {:>8} {:>6} {:>12} {:>13} {:>13} {:>14}",
        "scenario",
        "channel",
        "goals",
        "quiet-frames",
        "quiet-frame-B",
        "repair-frames",
        "repair-frame-B"
    );
    for r in &rows {
        let flooded = match r.repair.flooded_bytes {
            0 => String::new(),
            bytes => format!("  flooded-B {bytes}"),
        };
        println!(
            "{:>22} {:>8} {:>6} {:>12} {:>13} {:>13} {:>14}{flooded}",
            r.scenario.name(),
            r.channel,
            r.goals,
            r.quiet.frames,
            r.quiet.frame_bytes,
            r.repair.frames,
            r.repair.frame_bytes,
        );
    }

    // Recorded re-runs of one chain and one mesh scenario: the full-run
    // trace journals (setup convergence included) are linted against the
    // conformance checker in-process and persisted so CI's `analyze` step
    // can replay them offline.
    let (chain_rec, chain_journal) =
        conman_bench::recorded_loop_run(10, 8, LoopScenario::CoreStateLoss);
    conman_bench::assert_loop_healthy(&chain_rec, 3);
    conman_bench::assert_journal_conforms(&chain_journal, "recorded chain loop journal");
    let (mesh_rec, mesh_journal) =
        conman_bench::recorded_mesh_loop_run(3, 8, LoopScenario::MeshLinkCut);
    conman_bench::assert_one_pass_reroute(&mesh_rec);
    conman_bench::assert_journal_conforms(&mesh_journal, "recorded mesh loop journal");
    for (path, journal) in [
        ("JOURNAL_loop_chain.json", &chain_journal),
        ("JOURNAL_loop_mesh.json", &mesh_journal),
    ] {
        match std::fs::write(path, journal) {
            Ok(()) => println!("wrote {path} (conforms)"),
            Err(e) => println!("could not write {path}: {e}"),
        }
    }
}

fn obs() {
    heading(
        "Flight recorder — journal determinism and post-mortem reconstruction (beyond the paper)",
    );
    println!("The recorder journals every loop span (tick → health probe → diagnosis →");
    println!("repair → stage/commit → verify) with simulated-time stamps only, so the same");
    println!("seeded scenario always yields a byte-identical journal.\n");

    // ---- Recorded mesh link-cut: the journal must carry the whole story.
    let rec = conman_bench::recorded_mesh_link_cut(3, 8);
    assert!(rec.converged, "the recorded mesh run must converge");
    let pm = conman_obs::Postmortem::from_json(&rec.journal).expect("journal parses");
    assert!(
        pm.blamed_links.contains(&rec.cut_link),
        "the journal must name the cut link {:?}: {:?}",
        rec.cut_link,
        pm.blamed_links
    );
    println!(
        "recorded mesh-link-cut (2x3, 8 goals): {} journal events, blamed link {:?}, \
         {} repair pass(es), {} staged device(s) reconstructed from the dump",
        rec.snapshot.journal_events,
        rec.cut_link,
        rec.repair_passes,
        pm.staged_devices.len(),
    );
    // The journal must also pass the protocol conformance checker, and is
    // persisted for CI's offline `analyze` step.
    conman_bench::assert_journal_conforms(&rec.journal, "recorded mesh link-cut journal");
    match std::fs::write("JOURNAL_obs.json", &rec.journal) {
        Ok(()) => println!("wrote JOURNAL_obs.json (conforms)"),
        Err(e) => println!("could not write JOURNAL_obs.json: {e}"),
    }
}

fn table6() {
    heading("Table VI — NM messages sent / received over the management channel vs n routers along the path");
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>18} {:>18} {:>16} {:>16} {:>16}",
        "n",
        "GRE sent/recv",
        "paper 3n+2/2n+2",
        "MPLS sent/recv",
        "VLAN sent/recv",
        "paper 3n-2/2n-1",
        "GRE B sent/recv",
        "MPLS B sent/recv",
        "VLAN B sent/recv"
    );
    // Beyond n ≈ 8 the number of protocol-sane paths grows exponentially
    // (every core segment can independently ride on MPLS), which is exactly
    // the "we should use more aggressive pruning rules" observation of
    // §III-C.1; the message-count expressions themselves stay linear.
    let msgs = |c: NmCost| format!("{}/{}", c.sent, c.received);
    let bytes = |c: NmCost| format!("{}/{}", c.bytes_sent, c.bytes_received);
    for n in [2usize, 3, 4, 6, 8] {
        let gre = configure_and_count(n, "GRE-IP");
        let mpls = configure_and_count(n, "MPLS");
        let vlan = configure_vlan_and_count(n);
        println!(
            "{n:>4} {:>14} {:>14} {:>14} {:>18} {:>18} {:>16} {:>16} {:>16}",
            msgs(gre),
            format!("{}/{}", 3 * n + 2, 2 * n + 2),
            msgs(mpls),
            msgs(vlan),
            format!("{}/{}", 3 * n - 2, 2 * n - 1),
            bytes(gre),
            bytes(mpls),
            bytes(vlan),
        );
    }
}

fn fleet() {
    heading("NM messages and bytes per goal by category — a twin of the benchmark's fleet_cold (beyond the paper)");
    println!(
        "{FLEET_TWIN_GOALS} synthetic VPN goals on the {FLEET_TWIN_CHAIN_N}-router chain, submitted in class order"
    );
    println!("and configured by one reconcile() pass; bytes are management payload bytes.\n");
    let FleetTwin {
        counters: c,
        wire,
        pass_peak,
        held,
    } = fleet_twin();
    let per_goal = |v: u64| v as f64 / FLEET_TWIN_GOALS as f64;
    let row = |direction: &str, category: &str, msgs: u64, bytes: u64| {
        println!(
            "{direction:>9} {category:>14} {msgs:>6} {:>10.4} {bytes:>8} {:>11.2}",
            per_goal(msgs),
            per_goal(bytes)
        );
    };
    println!(
        "{:>9} {:>14} {:>6} {:>10} {:>8} {:>11}",
        "direction", "category", "msgs", "msgs/goal", "bytes", "bytes/goal"
    );
    for (k, &v) in &c.sent_by_category {
        row("sent", &format!("{k:?}"), v, c.bytes_sent_by_category[k]);
    }
    for (k, &v) in &c.received_by_category {
        row(
            "received",
            &format!("{k:?}"),
            v,
            c.bytes_received_by_category[k],
        );
    }
    row(
        "both",
        "all",
        c.sent + c.received,
        c.bytes_sent + c.bytes_received,
    );
    // The benchmark's `mgmt_*_per_goal` adds these to the NM's own cost.
    println!(
        "probe frames: {} frames, {} B (data plane, not NM)",
        wire.frames, wire.frame_bytes
    );
    println!(
        "\npeak during the pass, heap B/goal: {:.2}",
        per_goal(pass_peak as u64)
    );
    println!(
        "held after the pass, heap B/goal: goal store {:.2}, agents {:.2}, network {:.2}, all {:.2}",
        per_goal(held.goals as u64),
        per_goal(held.agents as u64),
        per_goal(held.net as u64),
        per_goal(held.total() as u64)
    );
}
