//! `fleet_churn` — steady-state operation of one long-lived fleet.
//!
//! One converged [`FLEET`]-goal chain fleet (binary codec) lives for the
//! whole run.  One operation withdraws [`CHURN`] seeded victims in one
//! `withdraw_many`, submits as many new goals and reconciles.  The same
//! transaction layer as `fleet_cold` is used differently here: lenient
//! teardown batches beside stage batches, refcounted shared modules, and an
//! O(fleet) scan for O(32) changes — a gain for bulk set-up that taxes
//! teardown or the idle scan shows in this workload.

use super::{drift, require, verdict, Outcome, Plan};
use crate::fixtures::{active_goals, rss_kb, submitted_chain, synthetic_goal, Chain, Wire};
use crate::machine::{Meter, Timed};
use crate::rng::Rng;
use conman_core::nm::GoalId;
use conman_core::WireCodec;

pub const FLEET: usize = 512;
pub const CHURN: usize = 16;
/// Set-ups per run: all but the last only contribute `setup_s` samples.
const SETUPS: usize = 3;

/// A converged churn fleet and the bookkeeping one operation needs.
pub struct ChurnFleet {
    pub t: Chain,
    pub live: Vec<GoalId>,
    next_class: usize,
    victims: Rng,
}

/// What one churn operation cost.
pub struct ChurnOp {
    pub withdraw: Timed,
    pub configure: Timed,
    pub cost: Wire,
    pub verdict: Result<(), String>,
}

impl ChurnFleet {
    /// Build, discover and converge the fleet; returns it with the set-up's
    /// time.
    pub fn converge(seed: u64, meter: &mut Meter) -> (ChurnFleet, Timed) {
        let ((t, live), setup) = meter.time(|| {
            let classes = Rng::new(seed, 1).permutation(FLEET);
            let (mut t, live) = submitted_chain(WireCodec::Binary, &classes);
            let report = t.mn.reconcile();
            assert_eq!(report.active(), FLEET, "churn fleet must converge");
            (t, live)
        });
        let fleet = ChurnFleet {
            t,
            live,
            next_class: FLEET,
            victims: Rng::new(seed, 2),
        };
        (fleet, setup)
    }

    /// Withdraw [`CHURN`] seeded victims, submit as many new goals,
    /// reconcile, and check the post-condition (which includes an untimed
    /// idle `reconcile()` that must send nothing).
    pub fn op(&mut self, op: usize, meter: &mut Meter) -> ChurnOp {
        let victims: Vec<GoalId> = (0..CHURN)
            .map(|_| {
                let at = self.victims.below(self.live.len());
                self.live.swap_remove(at)
            })
            .collect();
        let fresh: Vec<_> = (0..CHURN)
            .map(|i| synthetic_goal(&self.t, self.next_class + i))
            .collect();
        self.next_class += CHURN;

        let before = Wire::of(&self.t.mn);
        let (withdrawn, withdraw) = meter.time(|| self.t.mn.withdraw_many(&victims));
        let (report, configure) = meter.time(|| {
            for goal in fresh {
                let id = self.t.mn.submit(goal);
                self.live.push(id);
            }
            self.t.mn.reconcile()
        });
        let cost = Wire::of(&self.t.mn).since(before);

        let mut problems = Vec::new();
        let mn = &mut self.t.mn;
        require(&mut problems, withdrawn.iter().all(|w| w.removed), || {
            format!("op {op}: a victim was not removed")
        });
        require(
            &mut problems,
            victims.iter().all(|v| mn.goals.get(*v).is_none()),
            || format!("op {op}: a victim is still stored"),
        );
        require(&mut problems, active_goals(mn) == FLEET, || {
            format!("op {op}: {} of {FLEET} goals active", active_goals(mn))
        });
        require(&mut problems, report.active() == FLEET, || {
            format!("op {op}: pass reports {} active", report.active())
        });
        let idle = mn.reconcile();
        require(
            &mut problems,
            idle.nm_sent == 0 && idle.transactions == 0,
            || format!("op {op}: idle reconcile sent {} messages", idle.nm_sent),
        );
        ChurnOp {
            withdraw,
            configure,
            cost,
            verdict: verdict(problems),
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome {
        goals_per_op: 2 * CHURN as u64,
        ..Default::default()
    };
    let mut meter = Meter::new();
    let (mut fleet, setup) = ChurnFleet::converge(plan.seed, &mut meter);
    out.setup_s.push(setup.ms / 1e3);
    for _ in 1..SETUPS {
        // Drop first: two live fleets would double the peak resident set.
        drop(fleet);
        let (again, setup) = ChurnFleet::converge(plan.seed, &mut meter);
        out.setup_s.push(setup.ms / 1e3);
        fleet = again;
    }

    let (mut withdraw, mut configure) = (Vec::new(), Vec::new());
    let mut rss_start = 0;
    for op in 0..plan.warmup_ops + plan.timed_ops {
        if op == plan.warmup_ops {
            rss_start = rss_kb().1;
        }
        let done = fleet.op(op, &mut meter);
        out.check(done.verdict);
        if op >= plan.warmup_ops {
            out.timed_op(done.withdraw + done.configure, done.cost);
            withdraw.push(done.withdraw.ms);
            configure.push(done.configure.ms);
        }
    }
    let rss_growth = rss_kb().1.saturating_sub(rss_start) as f64 / plan.timed_ops as f64;
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    out.notes
        .push(("churn.withdraw_ms", "ms", median(&withdraw)));
    out.notes
        .push(("churn.configure_ms", "ms", median(&configure)));
    out.notes.push((
        "churn.drift",
        "ratio",
        drift(&out.op_wall_ms).unwrap_or(0.0),
    ));
    out.notes
        .push(("churn.rss_growth_kb_per_op", "KB", rss_growth));
    out
}
