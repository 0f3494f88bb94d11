//! Multi-goal scaling experiments: how reconciliation behaves as the number
//! of concurrent goals grows on a fixed chain.
//!
//! Each synthetic goal is a VPN between the same customer-facing interfaces
//! for a distinct pair of site classes (`C<k>-S1` = `10.<k>.1.0/24`,
//! `C<k>-S2` = `10.<k>.2.0/24`), so every goal plans its own path, executes
//! in a disjoint pipe-id block, and shares the ISP core module instances
//! with every other goal — the goal-count axis the ROADMAP's scaling
//! trajectory tracks.
//!
//! Two reconcile executors are measured: the **batched** pass (one staged +
//! one committed round-trip per device per pass, relays coalesced) and the
//! **per-goal** baseline (one batch-of-one transaction per goal).
//! Messages-per-goal and wall-time-per-goal are the headline
//! numbers; `BENCH_goals.json` tracks them across PRs.

use crate::diagnosis::chain_limits;
use conman_core::nm::{ConnectivityGoal, GoalId};
use conman_core::WireCodec;
use conman_modules::{managed_chain, ManagedChain};
use conman_obs::Recorder;
use mgmt_channel::{ManagementChannel, OutOfBandChannel};
use std::time::Instant;

/// Which reconcile executor a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconcileMode {
    /// One batched transaction per pass (`reconcile`).
    Batched,
    /// One batch-of-one transaction per goal (`reconcile_per_goal`) — the
    /// baseline.
    PerGoal,
}

impl ReconcileMode {
    /// Short label for artefact output.
    pub fn label(self) -> &'static str {
        match self {
            ReconcileMode::Batched => "batched",
            ReconcileMode::PerGoal => "per-goal",
        }
    }
}

/// Which planning engine drives a batched pass (ignored by the per-goal
/// baseline, whose planning loop predates both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerEngine {
    /// `reconcile` — parallel path selection over one hoisted potential
    /// graph with per-worker scratch reuse.
    Parallel,
    /// `reconcile_sequential` — per-goal graph rebuild and fresh search
    /// state; the pre-raw-speed cost profile kept as the baseline.
    Sequential,
}

impl PlannerEngine {
    /// Short label for artefact output.
    pub fn label(self) -> &'static str {
        match self {
            PlannerEngine::Parallel => "parallel",
            PlannerEngine::Sequential => "sequential",
        }
    }
}

/// Full configuration of one multi-goal run: the topology and goal-count
/// axes plus the executor, planning-engine and wire-codec axes the
/// raw-speed work measures against each other.
#[derive(Debug, Clone, Copy)]
pub struct MultiGoalConfig {
    /// Chain size (core routers).
    pub n: usize,
    /// Goals to submit.
    pub goals: usize,
    /// Batched pass or per-goal baseline.
    pub mode: ReconcileMode,
    /// Planning engine for the batched pass.
    pub engine: PlannerEngine,
    /// Wire codec for the management payloads.
    pub codec: WireCodec,
}

/// What one multi-goal run measured.
#[derive(Debug, Clone)]
pub struct MultiGoalReport {
    /// Chain size (core routers).
    pub n: usize,
    /// Goals submitted.
    pub goals: usize,
    /// Which executor ran the pass.
    pub mode: ReconcileMode,
    /// Which planning engine the batched pass used.
    pub engine: PlannerEngine,
    /// Which wire codec the management payloads used.
    pub codec: WireCodec,
    /// Bytes of transaction wire encoding produced during the pass (the
    /// `txn.encode_bytes` counter) — how the zero-copy codec's size win is
    /// tracked.  Non-zero in both modes: the per-goal baseline speaks the
    /// same protocol, one segment at a time.
    pub encode_bytes: u64,
    /// Goals `Active` after the reconcile pass.
    pub active: usize,
    /// Transactions the pass executed (one per goal for the per-goal
    /// baseline; one batch for the batched pass on a fresh network).
    pub transactions: usize,
    /// Wall-clock for the single reconcile call, microseconds.
    pub reconcile_wall_us: u128,
    /// NM management messages sent during reconciliation (from the pass's
    /// [`ReconcileReport`](conman_core::runtime::ReconcileReport) counters).
    pub nm_sent: u64,
    /// NM management messages received during reconciliation.
    pub nm_received: u64,
    /// Module instances shared by at least two goals afterwards.
    pub shared_modules: usize,
}

impl MultiGoalReport {
    /// NM messages sent per goal — the scaling currency of the management
    /// plane.
    pub fn messages_per_goal(&self) -> f64 {
        self.nm_sent as f64 / self.goals.max(1) as f64
    }

    /// Reconcile wall-clock per goal, microseconds.
    pub fn wall_us_per_goal(&self) -> f64 {
        self.reconcile_wall_us as f64 / self.goals.max(1) as f64
    }
}

/// The `k`-th synthetic goal on a chain testbed.
pub fn synthetic_goal<C: ManagementChannel>(t: &ManagedChain<C>, k: usize) -> ConnectivityGoal {
    let mut goal = t.vpn_goal();
    let k = k + 1; // keep 10.0.x.0 (the real customer) out of the space
    goal.src_class = format!("C{k}-S1");
    goal.dst_class = format!("C{k}-S2");
    goal.resolved.remove("C1-S1");
    goal.resolved.remove("C1-S2");
    goal.resolved
        .insert(format!("C{k}-S1"), format!("10.{k}.1.0/24"));
    goal.resolved
        .insert(format!("C{k}-S2"), format!("10.{k}.2.0/24"));
    goal
}

/// Submit `goals` concurrent goals on an `n`-router chain and reconcile
/// them in one batched pass, measuring the pass.
pub fn multi_goal_run(n: usize, goals: usize) -> MultiGoalReport {
    multi_goal_run_mode(n, goals, ReconcileMode::Batched)
}

/// Submit `goals` concurrent goals on an `n`-router chain and reconcile
/// them in one pass with the chosen executor, measuring the pass (parallel
/// engine, JSON codec — the historical signature, kept for the criterion
/// harness).
pub fn multi_goal_run_mode(n: usize, goals: usize, mode: ReconcileMode) -> MultiGoalReport {
    multi_goal_run_cfg(MultiGoalConfig {
        n,
        goals,
        mode,
        engine: PlannerEngine::Parallel,
        codec: WireCodec::Json,
    })
}

/// Submit and reconcile goals under a full [`MultiGoalConfig`], measuring
/// the pass.
pub fn multi_goal_run_cfg(cfg: MultiGoalConfig) -> MultiGoalReport {
    assert!((1..=16384).contains(&cfg.goals), "goal count out of range");
    let MultiGoalConfig {
        n,
        goals,
        mode,
        engine,
        codec,
    } = cfg;
    let mut t: ManagedChain<OutOfBandChannel> = managed_chain(n);
    t.discover();
    t.mn.goals.limits = chain_limits(n);
    t.mn.codec = codec;
    // An enabled recorder supplies the `txn.encode_bytes` reading; attached
    // after discovery so only the measured pass counts.
    let recorder = Recorder::new();
    t.mn.set_recorder(recorder.clone());
    let ids: Vec<GoalId> = (0..goals)
        .map(|k| t.mn.submit(synthetic_goal(&t, k)))
        .collect();
    t.mn.reset_counters();
    let start = Instant::now();
    let report = match (mode, engine) {
        (ReconcileMode::Batched, PlannerEngine::Parallel) => t.mn.reconcile(),
        (ReconcileMode::Batched, PlannerEngine::Sequential) => t.mn.reconcile_sequential(),
        (ReconcileMode::PerGoal, _) => t.mn.reconcile_per_goal(),
    };
    let reconcile_wall_us = start.elapsed().as_micros();
    let shared_modules =
        t.mn.goals
            .module_users()
            .values()
            .filter(|g| g.len() >= 2)
            .count();
    debug_assert_eq!(ids.len(), goals);
    MultiGoalReport {
        n,
        goals,
        mode,
        engine,
        codec,
        encode_bytes: recorder.counter("txn.encode_bytes"),
        active: report.active(),
        transactions: report.transactions,
        reconcile_wall_us,
        nm_sent: report.nm_sent,
        nm_received: report.nm_received,
        shared_modules,
    }
}

/// Sanity-check a run: every goal must converge.
pub fn assert_converged(report: &MultiGoalReport) {
    assert_eq!(
        report.active, report.goals,
        "every goal must be active after reconcile: {report:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_goals_converge_on_a_short_chain() {
        let report = multi_goal_run(3, 8);
        assert_converged(&report);
        // The whole fresh pass is one batched transaction.
        assert_eq!(report.transactions, 1);
        assert!(report.shared_modules > 0, "goals share the core modules");
    }

    #[test]
    fn per_goal_baseline_still_converges_with_one_txn_per_goal() {
        let report = multi_goal_run_mode(3, 8, ReconcileMode::PerGoal);
        assert_converged(&report);
        assert_eq!(report.transactions, 8);
        assert!(
            report.encode_bytes > 0,
            "per-goal transactions are counted on the wire like any batch"
        );
    }

    #[test]
    fn batched_pass_sends_fewer_messages_than_per_goal_baseline() {
        let batched = multi_goal_run(3, 8);
        let per_goal = multi_goal_run_mode(3, 8, ReconcileMode::PerGoal);
        assert_converged(&batched);
        assert_converged(&per_goal);
        assert!(
            batched.nm_sent < per_goal.nm_sent,
            "batching must cut NM sends: batched {} vs per-goal {}",
            batched.nm_sent,
            per_goal.nm_sent
        );
    }

    #[test]
    fn reconcile_is_idempotent_across_synthetic_goals() {
        let mut t = managed_chain(3);
        t.discover();
        for k in 0..4 {
            let goal = synthetic_goal(&t, k);
            t.mn.submit(goal);
        }
        let report = t.mn.reconcile();
        assert_eq!(report.active(), 4);
        let second = t.mn.reconcile();
        assert_eq!(second.transactions, 0);
        assert_eq!(second.nm_sent, 0, "a converged pass sends nothing");
    }
}
