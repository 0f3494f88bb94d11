//! Equivalence suite for the raw-speed reconcile engine.
//!
//! The parallel planner (`reconcile`) and the sequential oracle
//! (`reconcile_sequential`) must be *observably identical*: same
//! `ReconcileReport`s, byte-identical trace journals, same NM wire-message
//! counts — on fresh chain and mesh fleets, under a mid-batch device
//! crash, and when commit-order conflicts demote a goal to the strict
//! fallback transaction.  The zero-copy binary codec must preserve the
//! same equivalence between same-codec twins, and message *counts* across
//! codecs.  Random fleets are covered by proptests that also feed the
//! planned batch through the plan checks (`verify_plans`).
//!
//! Every scenario runs twin testbeds built identically, so any divergence
//! between the engines shows up as a journal or report diff.

use conman::core::nm::{script, ConnectivityGoal};
use conman::core::runtime::{ReconcileReport, TxnEvent};
use conman::core::WireCodec;
use conman::modules::{
    managed_chain, managed_fanout_chain, managed_mesh_fanout, ManagedChain, ManagedMesh,
};
use conman_bench::assert_journal_conforms;
use conman_bench::control_loop::mesh_limits;
use conman_bench::diagnosis::chain_limits;
use conman_obs::Recorder;
use mgmt_channel::OutOfBandChannel;
use proptest::prelude::*;

type Chain = ManagedChain<OutOfBandChannel>;
type Mesh = ManagedMesh<OutOfBandChannel>;

/// A fan-out chain twin: `goals` submitted, limits set, recorder attached.
fn chain_twin(n: usize, goals: usize, codec: WireCodec) -> Chain {
    let mut t = managed_fanout_chain(n, goals);
    t.discover();
    t.mn.goals.limits = chain_limits(n);
    t.mn.codec = codec;
    for k in 0..goals {
        let goal = t.fanout_goal(k);
        t.mn.submit(goal);
    }
    t.mn.set_recorder(Recorder::new());
    t
}

/// A multipath-mesh twin, same shape.
fn mesh_twin(k: usize, goals: usize, codec: WireCodec) -> Mesh {
    let mut t = managed_mesh_fanout(k, goals);
    t.discover();
    t.mn.goals.limits = mesh_limits(k);
    t.mn.codec = codec;
    for g in 0..goals {
        let goal = t.fanout_goal(g);
        t.mn.submit(goal);
    }
    t.mn.set_recorder(Recorder::new());
    t
}

/// Everything an engine run exposes to the outside world.
struct Observed {
    report: String,
    journal: String,
    nm_sent: u64,
    nm_received: u64,
}

fn observe(report: &ReconcileReport, journal: String) -> Observed {
    Observed {
        report: serde_json::to_string(report).expect("report serializes"),
        journal,
        nm_sent: report.nm_sent,
        nm_received: report.nm_received,
    }
}

/// Assert the parallel and sequential observations are identical, and the
/// (shared) journal conforms.
fn assert_twins_equal(par: &Observed, seq: &Observed, what: &str) {
    assert_eq!(
        par.report, seq.report,
        "{what}: ReconcileReports must be identical"
    );
    assert_eq!(
        par.journal, seq.journal,
        "{what}: journals must be byte-identical"
    );
    assert_eq!(
        (par.nm_sent, par.nm_received),
        (seq.nm_sent, seq.nm_received),
        "{what}: NM wire-message counts must match"
    );
    assert_journal_conforms(&par.journal, what);
}

#[test]
fn parallel_equals_sequential_on_a_fresh_chain_fleet() {
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let mut a = chain_twin(4, 3, codec);
        let mut b = chain_twin(4, 3, codec);
        let ra = a.mn.reconcile();
        let rb = b.mn.reconcile_sequential();
        assert!(ra.converged(), "parallel pass converges ({codec:?})");
        assert!(rb.converged(), "sequential pass converges ({codec:?})");
        let par = observe(&ra, a.mn.recorder.journal_json());
        let seq = observe(&rb, b.mn.recorder.journal_json());
        assert_twins_equal(&par, &seq, &format!("fresh chain fleet ({codec:?})"));
        assert!(par.journal.len() > 2, "the pass journals real events");
        // A second pass is a no-op on both engines.
        let ra2 = a.mn.reconcile();
        let rb2 = b.mn.reconcile_sequential();
        assert_eq!(ra2.transactions, 0);
        assert_eq!(
            serde_json::to_string(&ra2).unwrap(),
            serde_json::to_string(&rb2).unwrap(),
            "idempotent passes must also match"
        );
    }
}

#[test]
fn parallel_equals_sequential_on_a_multipath_mesh_fleet() {
    for codec in [WireCodec::Json, WireCodec::Binary] {
        let mut a = mesh_twin(3, 3, codec);
        let mut b = mesh_twin(3, 3, codec);
        let ra = a.mn.reconcile();
        let rb = b.mn.reconcile_sequential();
        assert!(ra.converged(), "parallel pass converges ({codec:?})");
        let par = observe(&ra, a.mn.recorder.journal_json());
        let seq = observe(&rb, b.mn.recorder.journal_json());
        assert_twins_equal(&par, &seq, &format!("mesh fleet ({codec:?})"));
    }
}

/// Crash the middle router between staging and its commit, identically on
/// both twins: the batch's per-goal rollback and restore bookkeeping must
/// behave the same under both planning engines.
fn install_mid_batch_crash(t: &mut Chain) {
    let b = t.core[1];
    t.mn.txn_hook = Some(Box::new(move |event, net| {
        if let TxnEvent::BeforeCommit { device, .. } = event {
            if *device == b {
                net.set_device_up(b, false);
            }
        }
    }));
}

#[test]
fn parallel_equals_sequential_under_a_mid_batch_device_crash() {
    let mut a = chain_twin(3, 2, WireCodec::Binary);
    let mut b = chain_twin(3, 2, WireCodec::Binary);
    install_mid_batch_crash(&mut a);
    install_mid_batch_crash(&mut b);
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    assert!(
        !ra.converged(),
        "the crash must actually fail the pass: {ra:#?}"
    );
    let par = observe(&ra, a.mn.recorder.journal_json());
    let seq = observe(&rb, b.mn.recorder.journal_json());
    assert_twins_equal(&par, &seq, "mid-batch device crash");
}

/// The forward goal's mirror image: same interfaces and classes, traversed
/// in the opposite direction — the construction that cannot share the
/// batch's single commit order and demotes one goal to the strict fallback.
fn reversed(goal: &ConnectivityGoal) -> ConnectivityGoal {
    let mut g = goal.clone();
    std::mem::swap(&mut g.from, &mut g.to);
    std::mem::swap(&mut g.src_class, &mut g.dst_class);
    std::mem::swap(&mut g.src_gateway, &mut g.dst_gateway);
    g
}

fn opposite_direction_twin(codec: WireCodec) -> Chain {
    let mut t = managed_chain(3);
    t.discover();
    t.mn.codec = codec;
    let fwd = t.vpn_goal();
    let rev = reversed(&fwd);
    t.mn.submit(fwd);
    t.mn.submit(rev);
    t.mn.set_recorder(Recorder::new());
    t
}

#[test]
fn parallel_equals_sequential_when_commit_order_falls_back() {
    let mut a = opposite_direction_twin(WireCodec::Binary);
    let mut b = opposite_direction_twin(WireCodec::Binary);
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    let par = observe(&ra, a.mn.recorder.journal_json());
    let seq = observe(&rb, b.mn.recorder.journal_json());
    // The fallback goal runs as its own strict transaction: its per-device
    // stage events carry exactly one segment, unlike the batch's coalesced
    // stages.  This proves the scenario actually exercised the fallback.
    assert!(
        par.journal.contains("\"segments\":1"),
        "opposite-direction goals must demote one goal to a strict fallback: {}",
        par.journal
    );
    assert_twins_equal(&par, &seq, "commit-order fallback");
}

#[test]
fn binary_codec_matches_json_counts_and_end_state() {
    let mut json = chain_twin(4, 3, WireCodec::Json);
    let mut bin = chain_twin(4, 3, WireCodec::Binary);
    let rj = json.mn.reconcile();
    let rb = bin.mn.reconcile();
    assert!(rj.converged() && rb.converged());
    // The codec changes payload bytes, never message counts or outcomes:
    // the reports are identical across codecs.
    assert_eq!(
        serde_json::to_string(&rj).unwrap(),
        serde_json::to_string(&rb).unwrap(),
        "reports must be codec-independent"
    );
    // ...but the binary batches really are smaller on the wire.
    let jb = json.mn.recorder.counter("txn.encode_bytes");
    let bb = bin.mn.recorder.counter("txn.encode_bytes");
    assert!(
        bb * 2 < jb,
        "binary batch encoding must be less than half the JSON size: {bb} vs {jb}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fan-out chain fleets: the parallel engine is byte-identical
    /// to the sequential oracle, the journal conforms, and the fleet's
    /// plans (identical under both engines, as the journal equality
    /// proves) pass `verify_plans` with zero violations.
    #[test]
    fn random_chain_fleets_plan_identically_and_verify_clean(n in 3usize..6, goals in 1usize..5) {
        let mut a = chain_twin(n, goals, WireCodec::Binary);
        let mut b = chain_twin(n, goals, WireCodec::Binary);
        let ra = a.mn.reconcile();
        let rb = b.mn.reconcile_sequential();
        prop_assert!(ra.converged(), "parallel pass converges: {ra:#?}");
        let par = observe(&ra, a.mn.recorder.journal_json());
        let seq = observe(&rb, b.mn.recorder.journal_json());
        prop_assert_eq!(&par.report, &seq.report, "reports diverged");
        prop_assert_eq!(&par.journal, &seq.journal, "journals diverged");
        assert_journal_conforms(&par.journal, "random chain fleet");
        // The same fleet, planned the way the pass plans it, verifies clean.
        let mut c = chain_twin(n, goals, WireCodec::Binary);
        let mut plans = Vec::new();
        for id in c.mn.goals.ids() {
            let plan = c.mn.plan_goal(id).expect("a path exists");
            c.mn.goals.take_pipe_block(script::slot_count(&plan.path));
            plans.push(plan);
        }
        let violations = c.mn.verify_plans(&plans);
        prop_assert!(violations.is_empty(), "planned fleet must verify clean: {violations:?}");
    }

    /// The same equivalence on random multipath-mesh fleets.
    #[test]
    fn random_mesh_fleets_plan_identically_and_verify_clean(k in 2usize..4, goals in 1usize..4) {
        let mut a = mesh_twin(k, goals, WireCodec::Binary);
        let mut b = mesh_twin(k, goals, WireCodec::Binary);
        let ra = a.mn.reconcile();
        let rb = b.mn.reconcile_sequential();
        prop_assert!(ra.converged(), "parallel pass converges: {ra:#?}");
        let par = observe(&ra, a.mn.recorder.journal_json());
        let seq = observe(&rb, b.mn.recorder.journal_json());
        prop_assert_eq!(&par.report, &seq.report, "reports diverged");
        prop_assert_eq!(&par.journal, &seq.journal, "journals diverged");
        assert_journal_conforms(&par.journal, "random mesh fleet");
        let mut c = mesh_twin(k, goals, WireCodec::Binary);
        let mut plans = Vec::new();
        for id in c.mn.goals.ids() {
            let plan = c.mn.plan_goal(id).expect("a path exists");
            c.mn.goals.take_pipe_block(script::slot_count(&plan.path));
            plans.push(plan);
        }
        let violations = c.mn.verify_plans(&plans);
        prop_assert!(violations.is_empty(), "planned fleet must verify clean: {violations:?}");
    }
}
