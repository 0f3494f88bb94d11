//! Reproduction harness: regenerates every table and figure of the paper's
//! evaluation from the simulated testbeds.
//!
//! ```text
//! cargo run -p conman-bench --bin experiments            # everything
//! cargo run -p conman-bench --bin experiments table5     # one artefact
//! ```

use conman_bench::{
    closed_loop_run, configure_and_count, configure_vlan_and_count, discovered_chain,
    discovered_vlan_chain, loop_run, loop_run_inband, mesh_loop_run, multi_goal_run_cfg,
    path_labelled, DiagnosisScenario, LoopBenchReport, LoopScenario, MultiGoalConfig,
    MultiGoalReport, PlannerEngine, ReconcileMode,
};
use conman_core::ids::ModuleKind;
use conman_core::WireCodec;
use legacy_config::{
    classify_conman_script, gre_script_today, mpls_script_today, vlan_script_today, GreVpnParams,
};
use serde::Serialize;

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
    (&["diagnosis"], diagnosis),
    (&["goals"], goals),
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
        let kinds: Vec<String> = modules.iter().map(|m| m.name.kind.name()).collect();
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
                .map(|k| k.name())
                .collect::<Vec<_>>()
                .join(","),
            m.down_connectable
                .iter()
                .map(|k| k.name())
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
    print!("{}", scripts.render());
    t.mn.reset_counters();
    t.mn.execute_path(&gre, &goal);
    let c = t.mn.nm_counters();
    println!("\nFigure 3 message sequence as seen by the NM (configuration phase):");
    for (k, v) in &c.sent_by_category {
        println!("  sent     {:?}: {}", k, v);
    }
    for (k, v) in &c.received_by_category {
        println!("  received {:?}: {}", k, v);
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
        let router_a = &scripts.scripts[0];
        println!("\n--- {} : configuration today (router A) ---", label);
        println!("{}", today.text());
        println!(
            "--- {} : CONMan configuration (router A, generated by the NM) ---",
            label
        );
        for l in &router_a.rendered {
            println!("{l}");
        }
        let conman = classify_conman_script(&router_a.rendered);
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
    for l in &scripts.scripts[0].rendered {
        println!("{l}");
    }
    rows.push((
        "VLAN".to_string(),
        today.counts(),
        classify_conman_script(&scripts.scripts[0].rendered).counts(),
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
    println!("Periodic telemetry every 100ms of simulated time; one watchdog probe per round;");
    println!("counter-delta localisation along the configured path; repair = teardown + re-plan");
    println!("excluding suspects + execute + end-to-end verification.\n");
    // Per-fault scenarios on the Figure 4 chain.
    for scenario in [
        DiagnosisScenario::EgressGreKeyCorruption,
        DiagnosisScenario::CoreLinkCut,
    ] {
        println!("{}", closed_loop_run(3, scenario).render());
    }
    // The scaling sweep the acceptance criteria ask for: 3, 10, 50 routers.
    for n in [4usize, 10, 50] {
        println!(
            "{}",
            closed_loop_run(n, DiagnosisScenario::MidRouterRoutingLoss).render()
        );
    }
}

fn goals() {
    heading(
        "Multi-goal reconciliation — goal-count scaling on the 10-router chain (beyond the paper)",
    );
    println!("Each goal is a VPN for a distinct pair of site classes between the same edge");
    println!("interfaces.  The batched pass plans every goal in a disjoint pipe-id block and");
    println!("stages/commits each device once per pass; the per-goal baseline runs one");
    println!("batch-of-one transaction per goal (same protocol, no sharing).  Batched rows run");
    println!("twice: the sequential planner over JSON payloads (the pre-raw-speed engine)");
    println!("and the parallel planner over the zero-copy binary codec.\n");
    println!(
        "{:>9} {:>11} {:>7} {:>6} {:>8} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "mode",
        "engine",
        "codec",
        "goals",
        "active",
        "txns",
        "reconcile",
        "enc bytes",
        "NM sent",
        "NM recv",
        "msg/goal",
        "µs/goal"
    );
    let mut rows: Vec<MultiGoalReport> = Vec::new();
    let print_row = |r: &MultiGoalReport| {
        println!(
            "{:>9} {:>11} {:>7} {:>6} {:>8} {:>6} {:>9} µs {:>12} {:>12} {:>12} {:>10.1} {:>10.1}",
            r.mode.label(),
            r.engine.label(),
            r.codec.label(),
            r.goals,
            r.active,
            r.transactions,
            r.reconcile_wall_us,
            r.encode_bytes,
            r.nm_sent,
            r.nm_received,
            r.messages_per_goal(),
            r.wall_us_per_goal()
        );
    };
    let batched = |goals: usize, engine: PlannerEngine, codec: WireCodec| {
        let r = multi_goal_run_cfg(MultiGoalConfig {
            n: 10,
            goals,
            mode: ReconcileMode::Batched,
            engine,
            codec,
        });
        assert_eq!(
            r.active, r.goals,
            "every goal must converge in the batched pass"
        );
        r
    };
    for goals in [1usize, 8, 64, 256, 512] {
        let r = batched(goals, PlannerEngine::Sequential, WireCodec::Json);
        print_row(&r);
        rows.push(r);
        let r = batched(goals, PlannerEngine::Parallel, WireCodec::Binary);
        print_row(&r);
        rows.push(r);
    }
    // The tail of the scaling axis only runs under the raw-speed engine:
    // at 4k/16k goals the sequential/JSON baseline's per-goal graph rebuild
    // would dominate the whole harness run for a ratio already asserted at
    // 512 goals, so the baselines are deliberately skipped here.
    println!("(4096/16384-goal rows: sequential/JSON baseline skipped by design)");
    for goals in [4096usize, 16384] {
        let r = batched(goals, PlannerEngine::Parallel, WireCodec::Binary);
        print_row(&r);
        rows.push(r);
    }
    for goals in [1usize, 8, 64] {
        let r = multi_goal_run_cfg(MultiGoalConfig {
            n: 10,
            goals,
            mode: ReconcileMode::PerGoal,
            engine: PlannerEngine::Parallel,
            codec: WireCodec::Json,
        });
        // The baseline must converge too, or the message ratio below would
        // be computed against a partially failed (cheaper) baseline.
        assert_eq!(
            r.active, r.goals,
            "every goal must converge in the per-goal baseline"
        );
        // A per-goal transaction is a batch of one, so its bytes are
        // counted and its relays coalesce per device-round exactly as in
        // the batch: 39 NM messages per goal, the batched pass's total at
        // 1 goal.  The <= 25% message gate and <= 50% wall gate below are
        // unchanged.
        assert!(
            r.encode_bytes > 0,
            "per-goal transaction bytes must be counted"
        );
        print_row(&r);
        rows.push(r);
    }
    let find = |mode: ReconcileMode, engine: PlannerEngine, codec: WireCodec, goals: usize| {
        rows.iter()
            .find(|r| r.mode == mode && r.engine == engine && r.codec == codec && r.goals == goals)
            .unwrap_or_else(|| panic!("missing {:?} {:?} {goals}-goal row", mode, engine))
    };
    // The headline ratio the acceptance criteria track: at 64 goals the
    // batched pass must send at most 25% of the baseline's NM messages.
    // Message counts are codec-independent, so the raw-speed row serves.
    let batched64 = find(
        ReconcileMode::Batched,
        PlannerEngine::Parallel,
        WireCodec::Binary,
        64,
    );
    let per_goal64 = find(
        ReconcileMode::PerGoal,
        PlannerEngine::Parallel,
        WireCodec::Json,
        64,
    );
    let ratio = batched64.nm_sent as f64 / per_goal64.nm_sent as f64;
    println!(
        "\nNM sends at 64 goals: batched {} vs per-goal baseline {} ({:.1}% of baseline)",
        batched64.nm_sent,
        per_goal64.nm_sent,
        100.0 * ratio
    );
    assert!(
        ratio <= 0.25,
        "batched reconcile must send <= 25% of the per-goal baseline's messages"
    );
    // The raw-speed gate: at 512 goals the parallel planner over the
    // zero-copy binary codec must finish the pass in at most half the
    // sequential/JSON engine's wall time.
    let fast512 = find(
        ReconcileMode::Batched,
        PlannerEngine::Parallel,
        WireCodec::Binary,
        512,
    );
    let slow512 = find(
        ReconcileMode::Batched,
        PlannerEngine::Sequential,
        WireCodec::Json,
        512,
    );
    let wall_ratio = fast512.reconcile_wall_us as f64 / slow512.reconcile_wall_us.max(1) as f64;
    println!(
        "Reconcile wall at 512 goals: parallel+binary {} µs vs sequential+JSON {} µs ({:.1}% of baseline)",
        fast512.reconcile_wall_us,
        slow512.reconcile_wall_us,
        100.0 * wall_ratio
    );
    assert!(
        wall_ratio <= 0.50,
        "parallel+zero-copy reconcile must finish in <= 50% of the sequential/JSON wall time at 512 goals"
    );

    // Machine-readable artefact so CI tracks the perf trajectory across PRs.
    let series: Vec<serde_json::Value> = rows
        .iter()
        .map(|r| {
            serde_json::json!({
                "mode": r.mode.label(),
                "engine": r.engine.label(),
                "codec": r.codec.label(),
                "goals": r.goals,
                "active": r.active,
                "transactions": r.transactions,
                "wall_us": r.reconcile_wall_us as u64,
                "encode_bytes": r.encode_bytes,
                "nm_sent": r.nm_sent,
                "nm_received": r.nm_received,
                "shared_modules": r.shared_modules,
                "messages_per_goal": r.messages_per_goal(),
                "wall_us_per_goal": r.wall_us_per_goal(),
            })
        })
        .collect();
    let artefact = serde_json::json!({
        "bench": "goals",
        "chain_routers": 10,
        "wall_ratio_512": wall_ratio,
        "series": series,
    });
    let path = "BENCH_goals.json";
    match std::fs::write(
        path,
        serde_json::to_string(&artefact).expect("artefact serializes"),
    ) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
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
            "{:>22} {:>8} {:>6} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>7} {:>10} {:>10}",
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
            "wall"
        );
    };
    header();
    let print_row = |r: &LoopBenchReport| {
        println!(
            "{:>22} {:>8} {:>6} {:>7} {:>8} {:>8} {:>9} {:>9} {:>8} {:>7} {:>7} {:>10} {:>7} µs",
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
            r.repair_nm_sent,
            r.repair_wall_us,
        );
    };
    let mut rows: Vec<LoopBenchReport> = Vec::new();
    for scenario in [LoopScenario::CoreStateLoss, LoopScenario::PerGoalTableFlush] {
        for goals in [8usize, 64, 256] {
            let r = loop_run(10, goals, scenario);
            print_row(&r);
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
            rows.push(r);
        }
    }
    // Mesh rows: a blamed core link has a genuine alternative, so the smoke
    // gate is the one-pass reroute — exactly one batched pass, zero failed
    // attempts, the *link* (not just a device) blamed.
    for scenario in [LoopScenario::MeshLinkCut, LoopScenario::MeshLinkLoss] {
        for goals in [8usize, 64, 256] {
            let r = mesh_loop_run(3, goals, scenario);
            print_row(&r);
            conman_bench::assert_one_pass_reroute(&r);
            assert_eq!(
                r.degraded_goals, r.goals,
                "every goal crossed the dead link"
            );
            rows.push(r);
        }
    }
    // The in-band message-budget row: the loop over the flooding channel
    // must stay silent when quiescent, and the faulty ticks' flooded
    // telemetry cost is recorded for trend tracking.
    let r = loop_run_inband(10, 8, LoopScenario::CoreStateLoss);
    print_row(&r);
    conman_bench::assert_loop_healthy(&r, 3);
    rows.push(r);

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

    // Machine-readable artefact so CI tracks the loop trajectory across
    // PRs.  `LoopBenchReport` derives `Serialize`, so the artefact shares
    // the same encoding path as the flight-recorder snapshot instead of a
    // hand-assembled JSON object per row.
    let series: Vec<serde_json::Value> = rows.iter().map(|r| r.serialize()).collect();
    let artefact = serde_json::json!({
        "bench": "loop",
        "chain_routers": 10,
        "mesh_stages": 3,
        "tick_ms": 100,
        "series": series,
    });
    let path = "BENCH_loop.json";
    match std::fs::write(
        path,
        serde_json::to_string(&artefact).expect("artefact serializes"),
    ) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

fn obs() {
    heading("Flight recorder — journal determinism, post-mortem reconstruction and recorder overhead (beyond the paper)");
    println!("The recorder journals every loop span (tick → health probe → diagnosis →");
    println!("repair → stage/commit → verify) with simulated-time stamps only, so the same");
    println!("seeded scenario always yields a byte-identical journal.  The overhead rows");
    println!("drive the same converged fleet through quiescent ticks with the recorder");
    println!("disabled vs enabled; the statistic is the minimum tick wall time.\n");

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

    // ---- Overhead rows; the 256-goal row is the CI smoke gate. ---------
    println!(
        "\n{:>6} {:>6} {:>14} {:>14} {:>10} {:>10}",
        "n", "goals", "disabled-tick", "enabled-tick", "overhead", "events"
    );
    let mut rows = Vec::new();
    for goals in [64usize, 256] {
        let r = conman_bench::loop_overhead(10, goals);
        println!(
            "{:>6} {:>6} {:>11} µs {:>11} µs {:>9.1}% {:>10}",
            r.n,
            r.goals,
            r.disabled_tick_ns / 1_000,
            r.enabled_tick_ns / 1_000,
            r.overhead_pct,
            r.journal_events
        );
        rows.push(r);
    }
    let gate = rows
        .iter()
        .find(|r| r.goals == 256)
        .expect("256-goal overhead row");
    assert!(
        gate.overhead_pct <= 105.0,
        "recorder overhead on the 256-goal loop row must stay within 5% \
         (enabled {} ns vs disabled {} ns = {:.1}%)",
        gate.enabled_tick_ns,
        gate.disabled_tick_ns,
        gate.overhead_pct
    );

    // Machine-readable artefact: the overhead rows plus the recorded run's
    // metrics snapshot, all through the derived serialisation path.
    let artefact = serde_json::json!({
        "bench": "obs",
        "chain_routers": 10,
        "mesh_stages": 3,
        "overhead_ticks_measured": 8,
        "overhead": rows.iter().map(|r| r.serialize()).collect::<Vec<_>>(),
        "recorded_mesh_link_cut": {
            "converged": rec.converged,
            "cut_link": rec.cut_link,
            "repair_passes": rec.repair_passes,
            "journal_events": rec.snapshot.journal_events,
            "postmortem_staged_devices": pm.staged_devices.len() as u64,
            "snapshot": rec.snapshot.serialize(),
        },
    });
    let path = "BENCH_obs.json";
    match std::fs::write(
        path,
        serde_json::to_string(&artefact).expect("artefact serializes"),
    ) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

fn table6() {
    heading("Table VI — NM messages sent / received over the management channel vs n routers along the path");
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>18} {:>18}",
        "n",
        "GRE sent/recv",
        "paper 3n+2/2n+2",
        "MPLS sent/recv",
        "VLAN sent/recv",
        "paper 3n-2/2n-1"
    );
    // Beyond n ≈ 8 the number of protocol-sane paths grows exponentially
    // (every core segment can independently ride on MPLS), which is exactly
    // the "we should use more aggressive pruning rules" observation of
    // §III-C.1; the message-count expressions themselves stay linear.
    for n in [2usize, 3, 4, 6, 8] {
        let (gs, gr) = configure_and_count(n, "GRE-IP");
        let (ms, mr) = configure_and_count(n, "MPLS");
        let (vs, vr) = configure_vlan_and_count(n);
        println!(
            "{n:>4} {:>14} {:>14} {:>14} {:>18} {:>18}",
            format!("{gs}/{gr}"),
            format!("{}/{}", 3 * n + 2, 2 * n + 2),
            format!("{ms}/{mr}"),
            format!("{vs}/{vr}"),
            format!("{}/{}", 3 * n - 2, 2 * n - 1),
        );
    }
}
