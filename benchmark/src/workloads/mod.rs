//! The four workloads.  Each is a closed loop with one client: the next
//! operation starts only when the previous one has completed and its
//! post-condition has been checked.  The seed shapes the inputs; the program
//! sees only the generated goals and faults.

pub mod fleet_churn;
pub mod fleet_cold;
pub mod loop_quiet;
pub mod loop_repair;

use crate::fixtures::{rss_kb, Wire};
use crate::machine::Timed;
use crate::stats;

/// One workload: its name, why it exists, and how many timed operations and
/// warm-ups it runs per second of `--seconds`.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Timed operations per second of requested run length (sized on the
    /// reference machine so the timed loop lasts about `--seconds`).
    pub ops_per_second: f64,
    /// Operations run and discarded before timing starts.
    pub warmup_ops: usize,
    /// The timed operation count is rounded up to a multiple of this, for a
    /// workload whose count metrics only repeat over whole cycles of inputs.
    pub ops_multiple_of: usize,
    pub run: fn(&Plan) -> Outcome,
}

/// Fewest timed operations any workload runs, whatever `--seconds` says.
pub const MIN_TIMED_OPS: usize = 12;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_cold",
        why: "bulk provisioning: one reconcile() configures 2048 goals on a fresh chain; >99% transaction execution, health/diagnose/netsim idle",
        ops_per_second: 0.8,
        warmup_ops: 1,
        ops_multiple_of: 1,
        run: fleet_cold::run,
    },
    Workload {
        name: "fleet_churn",
        why: "steady-state churn on a long-lived 512-goal fleet: teardown batches beside stage batches, refcounted modules, O(fleet) scan for 32 changes",
        ops_per_second: 10.0,
        warmup_ops: 5,
        ops_multiple_of: 1,
        run: fleet_churn::run,
    },
    Workload {
        name: "loop_quiet",
        why: "always-on cost of autonomy: quiet ControlLoop ticks over 256 goals; zero NM messages, so netsim, health probes and store walks do all the work",
        ops_per_second: 26.0,
        warmup_ops: 10,
        ops_multiple_of: loop_quiet::TICKS_PER_FLEET,
        run: loop_quiet::run,
    },
    Workload {
        name: "loop_repair",
        why: "self-healing end to end: chain state-loss and mesh link-cut episodes on 128-goal fleets; diagnosis, exclusion-keyed path search, JSON codec",
        ops_per_second: 0.9,
        warmup_ops: 1,
        ops_multiple_of: loop_repair::FAULTABLE,
        run: loop_repair::run,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What one run of a workload is asked to do.
pub struct Plan {
    pub seed: u64,
    pub timed_ops: usize,
    pub warmup_ops: usize,
}

impl Plan {
    /// Operation counts are a fixed function of `--seconds`, never of how
    /// fast this machine happens to be: equal seeds and run lengths then
    /// run equal work, so the count metrics repeat exactly.
    pub fn new(w: &Workload, seed: u64, seconds: u64) -> Plan {
        let scaled = (w.ops_per_second * seconds as f64).round() as usize;
        Plan {
            seed,
            timed_ops: scaled
                .max(MIN_TIMED_OPS)
                .next_multiple_of(w.ops_multiple_of),
            warmup_ops: w.warmup_ops,
        }
    }
}

/// What one run of a workload measured, before any statistics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// One sample per set-up (topology build + discover + initial
    /// convergence), seconds at the reference machine speed.
    pub setup_s: Vec<f64>,
    /// One sample per timed operation, milliseconds at the reference
    /// machine speed (see [`crate::machine`]).
    pub op_wall_ms: Vec<f64>,
    /// The same operations as the clock read them, milliseconds.
    pub op_raw_ms: Vec<f64>,
    /// Goals one operation touches.
    pub goals_per_op: u64,
    /// Management cost accrued over the timed operations.
    pub wire: Wire,
    /// Largest fault → verified-repair distance in simulated ticks
    /// (`loop_repair` only).
    pub ticks_to_repair: Option<u64>,
    /// Operations attempted (warm-ups included) and how many failed their
    /// post-condition.
    pub attempted: u64,
    pub failed: u64,
    /// The first few post-condition failures, for the operator.
    pub failures: Vec<String>,
    /// Extra per-workload observations printed by the human-readable mode
    /// (sub-operation walls, drift, memory growth): `(name, unit, value)`.
    pub notes: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Record one operation's post-condition verdict.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }

    /// Record one timed operation.
    pub fn timed_op(&mut self, op: Timed, cost: Wire) {
        self.op_wall_ms.push(op.ms);
        self.op_raw_ms.push(op.raw_ms);
        self.wire.add(cost);
    }

    fn goals_touched(&self) -> f64 {
        (self.goals_per_op * self.op_wall_ms.len() as u64) as f64
    }
}

/// Turn a list of failed checks into one verdict.
pub fn verdict(problems: Vec<String>) -> Result<(), String> {
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("; "))
    }
}

/// One verdict for an operation made of two checked parts.
pub fn both(a: Result<(), String>, b: Result<(), String>) -> Result<(), String> {
    verdict([a, b].into_iter().filter_map(Result::err).collect())
}

/// Push `what` onto `problems` unless `ok`.
pub fn require(problems: &mut Vec<String>, ok: bool, what: impl FnOnce() -> String) {
    if !ok {
        problems.push(what());
    }
}

/// Last-quarter mean ÷ first-quarter mean of a series: how much an
/// operation's cost depends on how long the process has been up.
pub fn drift(series: &[f64]) -> Option<f64> {
    let q = series.len() / 4;
    if q == 0 {
        return None;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let first = mean(&series[..q]);
    (first > 0.0).then(|| mean(&series[series.len() - q..]) / first)
}

/// Goals touched per second of timed wall, as the median over eight
/// consecutive stretches of the run: one preempted operation then costs one
/// stretch its reading, not the whole run.
fn sustained_goals_per_s(op_wall_ms: &[f64], goals_per_op: u64) -> f64 {
    let stretch = (op_wall_ms.len() / 8).max(1);
    let rates: Vec<f64> = op_wall_ms
        .chunks(stretch)
        .map(|ops| (goals_per_op * ops.len() as u64) as f64 / (ops.iter().sum::<f64>() / 1e3))
        .collect();
    stats::median(&rates).expect("at least one timed operation")
}

/// Every end-to-end number of one run, by the names `BENCHMARK.json` and the
/// README use.  `None` prints as `null`: the metric does not exist on that
/// workload, or its sample is too small to support it.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub setup_s: Option<f64>,
    pub op_wall_ms: stats::Summary,
    pub op_wall_ms_p90: Option<f64>,
    /// Median of the operations' raw wall, and the median factor by which
    /// the machine ran slower than the reference speed while they ran.
    pub raw_op_wall_ms_p50: Option<f64>,
    pub machine_slowdown: Option<f64>,
    pub goals_per_s: f64,
    pub mgmt_msgs_per_goal: f64,
    pub mgmt_bytes_per_goal: f64,
    pub nm_msgs_per_goal: f64,
    pub nm_bytes_per_goal: f64,
    pub frames_per_goal: f64,
    pub ticks_to_repair: Option<u64>,
    pub failed_ops_ratio: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn of(o: &Outcome) -> EndToEnd {
        let goals = o.goals_touched();
        let per_goal = |v: u64| v as f64 / goals;
        EndToEnd {
            setup_s: stats::median(&o.setup_s),
            op_wall_ms: stats::Summary::of(&o.op_wall_ms),
            op_wall_ms_p90: stats::percentile(&o.op_wall_ms, 90.0),
            raw_op_wall_ms_p50: stats::median(&o.op_raw_ms),
            machine_slowdown: stats::median(
                &o.op_raw_ms
                    .iter()
                    .zip(&o.op_wall_ms)
                    .map(|(raw, scaled)| raw / scaled)
                    .collect::<Vec<_>>(),
            ),
            goals_per_s: sustained_goals_per_s(&o.op_wall_ms, o.goals_per_op),
            mgmt_msgs_per_goal: per_goal(o.wire.nm_msgs + o.wire.frames),
            mgmt_bytes_per_goal: per_goal(o.wire.nm_bytes + o.wire.frame_bytes),
            nm_msgs_per_goal: per_goal(o.wire.nm_msgs),
            nm_bytes_per_goal: per_goal(o.wire.nm_bytes),
            frames_per_goal: per_goal(o.wire.frames),
            ticks_to_repair: o.ticks_to_repair,
            failed_ops_ratio: o.failed as f64 / o.attempted.max(1) as f64,
            peak_rss_mb: rss_kb().0 as f64 / 1024.0,
        }
    }
}
