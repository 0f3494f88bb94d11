//! `fleet_cold` — the operator's bulk-provisioning case.
//!
//! One operation is one `reconcile()` that configures [`GOALS`] synthetic
//! VPN goals on a fresh, discovered 10-router chain over the binary codec.
//! Sizing shows the pass is > 99% transaction execution (planning is a few
//! milliseconds of ~1.5 s), so `run_batch`, the codec, agent staging,
//! per-device quiesce and module relays do nearly all the work, and the
//! health, diagnose and netsim layers do none.

use super::{require, verdict, Outcome, Plan};
use crate::fixtures::{active_goals, submitted_chain, Wire};
use crate::machine::Meter;
use crate::rng::Rng;
use conman_core::WireCodec;

pub const GOALS: usize = 2048;

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome {
        goals_per_op: GOALS as u64,
        ..Default::default()
    };
    // The seed numbers the goals' site classes and orders their submission.
    let mut order = Rng::new(plan.seed, 1);
    let mut meter = Meter::new();
    for op in 0..plan.warmup_ops + plan.timed_ops {
        let classes = order.permutation(GOALS);
        let ((mut t, _ids), setup) = meter.time(|| submitted_chain(WireCodec::Binary, &classes));

        let before = Wire::of(&t.mn);
        let (report, pending) = meter.start(|| t.mn.reconcile());
        let cost = Wire::of(&t.mn).since(before);

        let mut problems = Vec::new();
        require(&mut problems, report.active() == GOALS, || {
            format!("op {op}: {} of {GOALS} goals active", report.active())
        });
        require(&mut problems, active_goals(&t.mn) == GOALS, || {
            format!("op {op}: store holds {} active goals", active_goals(&t.mn))
        });
        require(&mut problems, report.transactions == 1, || {
            format!("op {op}: {} transactions, want 1", report.transactions)
        });
        out.check(verdict(problems));
        // Release the fleet before the closing probe (see `Meter::start`).
        drop((t, report));
        let pass = meter.finish(pending);
        if op >= plan.warmup_ops {
            out.setup_s.push(setup.ms / 1e3);
            out.timed_op(pass, cost);
        } else {
            // The first pass of a process pays first-touch heap growth the
            // later ones do not; it is discarded from the timing and shown.
            out.notes
                .push(("first_pass_us_per_goal", "us", pass.ms * 1e3 / GOALS as f64));
        }
    }
    out
}
