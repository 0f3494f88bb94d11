//! The fleet side of the sweep: the reconcile scaling slope, the decomposed
//! `fleet_cold` pass with its spans, and the transaction, codec, agent and
//! module rows measured on inputs captured from those fleets.

use super::Sweep;
use crate::fixtures::{discovered_chain, submitted_chain, Chain, CHAIN_N};
use crate::rng::Rng;
use crate::workloads::{fleet_churn, fleet_cold};
use conman_core::nm::{script, GoalId, ModulePath, ScriptSet, SearchScratch};
use conman_core::primitives::{Primitive, ScriptSegment};
use conman_core::runtime::{GoalTeardown, ManagedNetwork, ReconcileReport};
use conman_core::wire::{self, StageBatchView};
use conman_core::{WireCodec, WireMessage};
use mgmt_channel::MessageCategory;
use netsim::device::DeviceId;
use std::collections::{BTreeMap, BTreeSet};

/// One black-box `reconcile()` of a fresh fleet.
struct Pass {
    t: Chain,
    ids: Vec<GoalId>,
    wall_us: f64,
    report: ReconcileReport,
    /// Module-to-module envelopes the NM relayed during the pass.
    relays: u64,
}

/// Envelopes modules sent through the NM so far (peer negotiation).
fn relayed<C: mgmt_channel::ManagementChannel>(mn: &ManagedNetwork<C>) -> u64 {
    let c = mn.nm_counters();
    [MessageCategory::ConveyMessage, MessageCategory::FieldQuery]
        .iter()
        .map(|k| c.received_by_category.get(k).copied().unwrap_or(0))
        .sum()
}

fn black_box_pass(s: &mut Sweep, goals: usize, order: &mut Rng) -> Pass {
    let classes = order.permutation(goals);
    let (mut t, ids) = submitted_chain(WireCodec::Binary, &classes);
    let relays_before = relayed(&t.mn);
    s.spans.next_op();
    let (report, wall_us) = s.timed("reconcile.black_box", || t.mn.reconcile());
    s.check(report.active() == goals && report.transactions == 1, || {
        format!("black-box pass of {goals}: {} active", report.active())
    });
    let relays = relayed(&t.mn) - relays_before;
    Pass {
        t,
        ids,
        wall_us,
        report,
        relays,
    }
}

/// The decomposed replay of one pass: the calls `reconcile()` makes into
/// the planning and transaction layers, made from here with a span around
/// each.  Like the engine's per-worker memo, one search serves every goal
/// with the same search key (endpoints, layer-2 flag, traffic domain,
/// exclusions) — here: all of them.  Returns the generated scripts and the
/// replay's time in microseconds.
fn decomposed_pass(
    s: &mut Sweep,
    goals: usize,
    order: &mut Rng,
) -> (Vec<(GoalId, ScriptSet)>, f64) {
    let classes = order.permutation(goals);
    let (mut t, ids) = submitted_chain(WireCodec::Binary, &classes);
    s.spans.next_op();
    let Sweep { spans, meter, .. } = s;
    let ((items, committed), pass) = meter.time(|| {
        spans.scope("pass.decomposed", || {
            let graph = spans.scope("pass.build_graph", || t.mn.nm.build_graph());
            let paths: Vec<ModulePath> = spans.scope("pass.path_search", || {
                let mut scratch = SearchScratch::default();
                let mut memo = BTreeMap::new();
                ids.iter()
                    .map(|id| {
                        let rec = t.mn.goals.get(*id).expect("submitted goal");
                        let key = (
                            rec.desired.from.clone(),
                            rec.desired.to.clone(),
                            rec.desired.l2_only,
                            rec.desired.traffic_domain.clone(),
                            rec.excluded.clone(),
                        );
                        memo.entry(key)
                            .or_insert_with(|| {
                                let found = t.mn.nm.find_paths_avoiding_in(
                                    &graph,
                                    &rec.desired,
                                    &rec.excluded,
                                    t.mn.goals.limits,
                                    &mut scratch,
                                );
                                t.mn.nm.choose_path(&found).expect("a path exists").clone()
                            })
                            .clone()
                    })
                    .collect()
            });
            let items: Vec<(GoalId, ScriptSet)> = spans.scope("pass.script_generate", || {
                ids.iter()
                    .zip(&paths)
                    .map(|(id, path)| {
                        let base = t.mn.goals.take_pipe_block(script::slot_count(path));
                        let desired = &t.mn.goals.get(*id).expect("submitted goal").desired;
                        (
                            *id,
                            script::generate_with_base(&t.mn.nm, path, desired, base),
                        )
                    })
                    .collect()
            });
            let refs: Vec<(GoalId, &ScriptSet)> =
                items.iter().map(|(id, set)| (*id, set)).collect();
            let batch = spans.scope("pass.run_batch", || t.mn.run_batch(&refs));
            (items, batch.committed.len())
        })
    });
    s.check(committed == goals, || {
        format!("decomposed pass of {goals}: {committed} committed")
    });
    (items, pass.ms * 1e3)
}

/// Every device's `StageBatch` segments, borrowed from the generated
/// scripts the way `run_batch` borrows them.
fn segments_by_device(
    items: &[(GoalId, ScriptSet)],
) -> BTreeMap<DeviceId, Vec<(u64, &[Primitive])>> {
    let mut by_device: BTreeMap<DeviceId, Vec<(u64, &[Primitive])>> = BTreeMap::new();
    for (id, set) in items {
        for ds in &set.scripts {
            by_device
                .entry(ds.device)
                .or_default()
                .push((id.0, ds.primitives.as_slice()));
        }
    }
    by_device
}

/// Black-box passes and decomposed replays of the `fleet_cold` fleet,
/// interleaved, so the two sides of every ratio saw the same machine.
const PASS_PAIRS: usize = 2;

pub fn rows(s: &mut Sweep, seed: u64) {
    let mut order = Rng::new(seed, 1);
    let goals = fleet_cold::GOALS as f64;

    // ---- reconcile: first pass, then one warm pass per size. -----------
    let first = black_box_pass(s, fleet_cold::GOALS, &mut order);
    s.row("reconcile.first_pass_us_per_goal", first.wall_us / goals);
    drop(first);
    let small = black_box_pass(s, 64, &mut order);
    s.row("reconcile.us_per_goal.64", small.wall_us / 64.0);
    drop(small);
    let mut mid = black_box_pass(s, fleet_churn::FLEET, &mut order);
    s.row(
        "reconcile.us_per_goal.512",
        mid.wall_us / fleet_churn::FLEET as f64,
    );
    let large = black_box_pass(s, 4096, &mut order);
    s.row("reconcile.us_per_goal.4096", large.wall_us / 4096.0);
    drop(large);

    // ---- the 2048 pass, black box beside its decomposed replay. --------
    let (mut black_box_us, mut decomposed_us) = (0.0, 0.0);
    let mut items = Vec::new();
    for _ in 0..PASS_PAIRS {
        let cold = black_box_pass(s, fleet_cold::GOALS, &mut order);
        black_box_us += cold.wall_us / PASS_PAIRS as f64;
        if items.is_empty() {
            s.row(
                "txn.nm_received_per_goal",
                cold.report.nm_received as f64 / goals,
            );
            s.row("modules.relays_per_goal", cold.relays as f64 / goals);
        }
        drop(cold);
        let (scripts, replay_us) = decomposed_pass(s, fleet_cold::GOALS, &mut order);
        decomposed_us += replay_us / PASS_PAIRS as f64;
        items = scripts;
    }
    s.row("reconcile.us_per_goal.2048", black_box_us / goals);
    // Spans carry raw clock readings; one factor rescales the replays to
    // the reference machine speed, like the black-box passes beside them.
    let own = s.spans.self_ns_by_name();
    let replay_raw_us = s.spans.total_ns("pass.decomposed") as f64 / 1e3 / PASS_PAIRS as f64;
    let rescale = decomposed_us / replay_raw_us / PASS_PAIRS as f64;
    let own_us = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / 1e3 * rescale;
    let plan_us =
        own_us("pass.build_graph") + own_us("pass.path_search") + own_us("pass.script_generate");
    let batch_us = own_us("pass.run_batch");
    s.row("txn.run_batch_us_per_goal", batch_us / goals);
    s.row("txn.share_of_pass", batch_us / black_box_us);
    s.row("reconcile.plan_share", plan_us / black_box_us);
    s.row(
        "reconcile.unattributed_share",
        (black_box_us - plan_us - batch_us) / black_box_us,
    );
    s.row("trace.accounted_share", (plan_us + batch_us) / black_box_us);
    s.row("trace.overhead_ratio", decomposed_us / black_box_us);
    s.breakdown.push(format!(
        "fleet_cold pass, {} goals, mean of {PASS_PAIRS}: black-box reconcile() {:.1} ms; decomposed replay {:.1} ms",
        fleet_cold::GOALS,
        black_box_us / 1e3,
        decomposed_us / 1e3
    ));
    for name in [
        "pass.build_graph",
        "pass.path_search",
        "pass.script_generate",
        "pass.run_batch",
        "pass.decomposed",
    ] {
        s.breakdown.push(format!(
            "  self time {name:<20} {:>10.1} us  {:>6.2}% of the black-box pass",
            own_us(name),
            own_us(name) / black_box_us * 100.0
        ));
    }

    // ---- the converged 512 fleet: idle costs, then teardown. -----------
    let idle_us = s.median_us("reconcile.idle", 20, || drop(mid.t.mn.reconcile()));
    s.row("reconcile.idle_pass_us", idle_us);
    let idle = mid.t.mn.reconcile();
    s.check(idle.nm_sent == 0 && idle.transactions == 0, || {
        format!("idle reconcile sent {} messages", idle.nm_sent)
    });
    let sweep_us = s.median_us("txn.run_management_idle", 200, || {
        std::hint::black_box(mid.t.mn.run_management());
    });
    s.row("txn.run_management_idle_us", sweep_us);
    let poll_us = {
        let mn = &mut mid.t.mn;
        let ingress = mid.t.core[0];
        let agent = mn.agents.get_mut(&ingress).expect("ingress agent");
        let device = mn.net.device_mut(ingress).expect("ingress device");
        s.median_us("agent.poll_quiescent", 20, || {
            drop(agent.poll_until_quiescent(device))
        })
    };
    s.row("agent.poll_quiescent_us", poll_us);
    let teardowns: Vec<GoalTeardown> = mid
        .ids
        .iter()
        .filter_map(|id| {
            let applied = mid.t.mn.goals.take_applied(*id)?;
            Some((*id, applied.scripts.teardown()))
        })
        .collect();
    let (torn, teardown_us) = s.timed("txn.run_teardown_batch", || {
        mid.t.mn.run_teardown_batch(&teardowns, &[])
    });
    s.check(
        torn.skipped.is_empty() && torn.per_goal.len() == teardowns.len(),
        || format!("teardown batch skipped {} devices", torn.skipped.len()),
    );
    s.row(
        "txn.teardown_batch_us_per_goal",
        teardown_us / teardowns.len() as f64,
    );
    drop(mid);

    wire_rows(s, &items);
    agent_rows(s, &items);

    let discover_us = s.median_us("modules.discover", 5, || {
        let mut t = conman_modules::managed_chain(CHAIN_N);
        t.discover();
    });
    s.row("modules.discover_us", discover_us);
}

/// The codec on the captured pass: every device's `StageBatch`, both ways.
fn wire_rows(s: &mut Sweep, items: &[(GoalId, ScriptSet)]) {
    let goals = items.len() as f64;
    let by_device = segments_by_device(items);

    let mut binary: Vec<Vec<u8>> = Vec::new();
    let encode_us = s.median_us("wire.encode_stage_batch", 5, || {
        binary = by_device
            .values()
            .map(|segments| wire::encode_stage_batch(1, segments))
            .collect();
    });
    let parse_us = s.median_us("wire.stage_view_parse", 5, || {
        for payload in &binary {
            let view = StageBatchView::parse(payload).expect("own encoding parses");
            let primitives: usize = view
                .segments()
                .map(|seg| seg.primitives().filter(Result::is_ok).count())
                .sum();
            std::hint::black_box(primitives);
        }
    });
    let json: Vec<Vec<u8>> = by_device
        .values()
        .map(|segments| {
            WireMessage::StageBatch {
                txn: 1,
                segments: segments
                    .iter()
                    .map(|(goal, primitives)| ScriptSegment {
                        goal: *goal,
                        primitives: primitives.to_vec(),
                    })
                    .collect(),
            }
            .encode()
        })
        .collect();
    let mut decoded = 0;
    let decode_us = s.median_us("wire.decode_json", 3, || {
        decoded = json
            .iter()
            .filter(|payload| WireMessage::decode(payload).is_some())
            .count();
    });
    let bytes = |payloads: &[Vec<u8>]| payloads.iter().map(Vec::len).sum::<usize>() as f64;
    s.check(decoded == json.len(), || {
        "a JSON StageBatch did not decode".to_string()
    });
    s.row("wire.stage_encode_us_per_goal", encode_us / goals);
    s.row("wire.stage_bytes_per_goal", bytes(&binary) / goals);
    s.row("wire.stage_json_bytes_per_goal", bytes(&json) / goals);
    s.row("wire.stage_view_parse_us_per_goal", parse_us / goals);
    s.row(
        "wire.decode_json_us_per_kb",
        decode_us / (bytes(&json) / 1024.0),
    );
}

/// The agents on the captured pass: each device's agent stages its
/// `StageBatch` in place and commits it, called directly (no channel, no
/// NM), in the reverse path order `run_batch` commits in.
fn agent_rows(s: &mut Sweep, items: &[(GoalId, ScriptSet)]) {
    let by_device = segments_by_device(items);
    let segments: usize = by_device.values().map(Vec::len).sum();
    let goal_ids: Vec<u64> = items.iter().map(|(id, _)| id.0).collect();
    let mut t = discovered_chain(WireCodec::Binary);
    let txn = 1;
    let payloads: Vec<(DeviceId, Vec<u8>)> = by_device
        .iter()
        .map(|(device, segs)| (*device, wire::encode_stage_batch(txn, segs)))
        .collect();

    let mn = &mut t.mn;
    let (staged, stage_us) = s.timed("agent.stage_batch", || {
        payloads
            .iter()
            .filter(|(device, payload)| {
                let agent = mn.agents.get_mut(device).expect("path device has an agent");
                let dev = mn.net.device_mut(*device).expect("path device exists");
                agent
                    .handle_stage_batch_in_place(dev, payload)
                    .is_some_and(|out| {
                        out.iter().any(|m| {
                            matches!(m, WireMessage::StageBatchResult { verdicts, .. }
                                if verdicts.iter().all(|v| v.errors.is_empty()))
                        })
                    })
            })
            .count()
    });
    s.check(staged == payloads.len(), || {
        format!("{staged} of {} agents staged cleanly", payloads.len())
    });

    let on_path: BTreeSet<DeviceId> = by_device.keys().copied().collect();
    let commit = WireMessage::CommitBatch {
        txn,
        goals: goal_ids,
    };
    let (committed, commit_us) = s.timed("agent.commit_batch", || {
        t.core
            .iter()
            .rev()
            .filter(|device| on_path.contains(device))
            .map(|device| {
                let agent = mn.agents.get_mut(device).expect("path device has an agent");
                let dev = mn.net.device_mut(*device).expect("path device exists");
                agent
                    .handle(dev, &commit)
                    .iter()
                    .map(|m| match m {
                        WireMessage::CommitBatchResult { segments, .. } => segments.len(),
                        _ => 0,
                    })
                    .sum::<usize>()
            })
            .sum::<usize>()
    });
    s.check(committed == segments, || {
        format!("{committed} of {segments} segments committed")
    });
    s.row(
        "agent.stage_batch_us_per_segment",
        stage_us / segments as f64,
    );
    s.row(
        "agent.commit_batch_us_per_segment",
        commit_us / segments as f64,
    );
}
