//! The traced run: one sweep over every layer of the program, measured from
//! outside.
//!
//! The benchmark's own span recorder wraps the calls *into* each layer; the
//! program itself is not instrumented (spans inside it are a later change).
//! The centre piece is a decomposed replay of one `fleet_cold` pass —
//! `build_graph`, path search, script generation, `run_batch` — beside a
//! black-box `reconcile()` of the same fleet, which yields each span's self
//! time, the share of the pass the spans account for, and traced ÷ untraced
//! wall as the tracing overhead.  The stand-alone rows (codec, agent,
//! channel, probe, diagnose, analyze) run on inputs captured from fleets of
//! the same shape the workloads use.
//!
//! The sweep runs in [`SECTIONS`], each in a child process of its own, and
//! is the same whichever `--workload` it is requested beside: the
//! driver asks for every per-layer metric from every workload's traced run,
//! and a row measured on one workload's fleet cannot be made up for
//! another.  What each row should move end to end, and where it should not,
//! is the last column of [`PER_LAYER`].

mod fleet;
mod loops;
mod standalone;

use crate::machine::Meter;
use crate::spans::Spans;
use crate::stats;

/// One per-layer metric: name, unit, whether lower is better, and the
/// end-to-end metric and workload it should move (⊘ = should not).
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub moves: &'static str,
}

const fn lower(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        lower_is_better: true,
        moves,
    }
}

const fn higher(name: &'static str, unit: &'static str, moves: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        lower_is_better: false,
        moves,
    }
}

const NETSIM: &str = "op_wall_ms_p50, peak_rss_mb, mgmt_msgs_per_goal @ loop_quiet; ⊘ fleet_*";
const CHANNEL: &str = "goals_per_s @ fleet_cold; ⊘ loop_quiet";
const NM: &str = "op_wall_ms_p50 @ loop_repair (mesh arm); ⊘ fleet_cold (0.3% share), loop_quiet";
const WIRE: &str =
    "mgmt_bytes_per_goal, goals_per_s @ fleet_cold (binary), loop_repair (JSON); ⊘ loop_quiet";
const AGENT: &str = "goals_per_s @ fleet_cold, fleet_churn";
const TXN: &str = "goals_per_s @ fleet_cold";
const TEARDOWN: &str = "op_wall_ms_p50 @ fleet_churn";
const SLOPE: &str = "the scaling slope behind goals_per_s @ fleet_cold";
const QUIET: &str = "op_wall_ms_p50/p90, peak_rss_mb @ loop_quiet";
const REPAIR: &str = "op_wall_ms_p50 @ loop_repair";
const DIAGNOSE: &str = "op_wall_ms_p50, mgmt_msgs_per_goal @ loop_repair; ⊘ all others";
const OBS: &str = "none in untraced runs (recorder off; verifier is debug-only)";
const CHURN: &str = "op_wall_ms_p50, peak_rss_mb @ fleet_churn";
const TRACE: &str = "none: how far the outside-in spans explain a fleet_cold pass";

/// Every per-layer metric, in the order the sweep reports them.  A test
/// holds `BENCHMARK.json` to this table.
pub const PER_LAYER: [LayerMetric; 63] = [
    lower("reconcile.first_pass_us_per_goal", "us", SLOPE),
    lower("reconcile.us_per_goal.64", "us", SLOPE),
    lower("reconcile.us_per_goal.512", "us", SLOPE),
    lower("reconcile.us_per_goal.2048", "us", SLOPE),
    lower("reconcile.us_per_goal.4096", "us", SLOPE),
    lower(
        "reconcile.idle_pass_us",
        "us",
        "op_wall_ms_p50 @ fleet_churn",
    ),
    lower("reconcile.plan_share", "ratio", SLOPE),
    lower("reconcile.unattributed_share", "ratio", SLOPE),
    lower("txn.run_batch_us_per_goal", "us", TXN),
    lower("txn.teardown_batch_us_per_goal", "us", TEARDOWN),
    lower("txn.run_management_idle_us", "us", TXN),
    lower("txn.nm_received_per_goal", "count", TXN),
    lower("txn.share_of_pass", "ratio", TXN),
    higher("trace.accounted_share", "ratio", TRACE),
    lower("trace.overhead_ratio", "ratio", TRACE),
    lower(
        "modules.relays_per_goal",
        "count",
        "mgmt_msgs_per_goal @ fleet_cold",
    ),
    lower("modules.discover_us", "us", "setup_s everywhere"),
    lower("wire.stage_encode_us_per_goal", "us", WIRE),
    lower("wire.stage_bytes_per_goal", "B", WIRE),
    lower("wire.stage_json_bytes_per_goal", "B", WIRE),
    lower("wire.stage_view_parse_us_per_goal", "us", WIRE),
    lower("wire.decode_json_us_per_kb", "us", WIRE),
    lower("agent.stage_batch_us_per_segment", "us", AGENT),
    lower("agent.commit_batch_us_per_segment", "us", AGENT),
    lower("agent.poll_quiescent_us", "us", AGENT),
    lower("nm.graph_build_us", "us", NM),
    lower("nm.pathfinder_find_us", "us", NM),
    lower("nm.pathfinder_find_excl_us", "us", NM),
    lower("nm.pathfinder_paths", "count", NM),
    lower("nm.script_generate_us", "us", NM),
    lower("nm.script_primitives_per_goal", "count", NM),
    lower("nm.plan_goal_us", "us", NM),
    lower("channel.oob_small_us", "us", CHANNEL),
    lower("channel.oob_large_us", "us", CHANNEL),
    lower("channel.inband_small_us", "us", CHANNEL),
    higher("channel.codec_write_mb_s", "MB/s", CHANNEL),
    higher("channel.codec_read_mb_s", "MB/s", CHANNEL),
    lower("churn.withdraw_ms", "ms", CHURN),
    lower("churn.configure_ms", "ms", CHURN),
    lower("churn.drift", "ratio", CHURN),
    lower("churn.rss_growth_kb_per_op", "KB", CHURN),
    lower("netsim.probe_us", "us", NETSIM),
    lower("netsim.frames_per_probe", "count", NETSIM),
    lower("netsim.trace_entries_per_tick", "count", NETSIM),
    lower("loop.tick_us.64", "us", QUIET),
    lower("loop.tick_us.256", "us", QUIET),
    lower("loop.tick_drift", "ratio", QUIET),
    lower("loop.rss_growth_kb_per_tick", "KB", QUIET),
    lower("obs.tick_overhead_ratio", "ratio", OBS),
    lower("obs.tick_overhead_iqr", "ratio", OBS),
    lower("obs.journal_events_per_tick", "count", OBS),
    lower("obs.event_ns", "ns", OBS),
    lower("analyze.verify_plans_us_per_goal", "us", OBS),
    lower("analyze.check_journal_us_per_kevent", "us", OBS),
    lower("loop.repair.core_state_loss_ms", "ms", REPAIR),
    lower("loop.repair.mesh_link_cut_ms", "ms", REPAIR),
    lower("loop.repair.table_flush_ms", "ms", REPAIR),
    lower("loop.detect_ticks", "ticks", REPAIR),
    lower("loop.repair_passes", "count", REPAIR),
    lower("loop.failed_attempts", "count", REPAIR),
    lower("diagnose.localise_us", "us", DIAGNOSE),
    lower("diagnose.msgs_per_diagnosis", "count", DIAGNOSE),
    lower("diagnose.exclusions_us", "us", DIAGNOSE),
];

/// What one section of the sweep measured, in the process that ran it.
pub struct Sweep {
    /// `(name, unit, value)`.
    pub rows: Vec<(&'static str, &'static str, f64)>,
    /// The decomposed pass, span by span, for the human-readable output.
    pub breakdown: Vec<String>,
    /// Checks made on the way (each layer call's result is verified) and the
    /// ones that failed.
    pub attempted: u64,
    pub failures: Vec<String>,
    pub spans: Spans,
    meter: Meter,
}

impl Sweep {
    fn new() -> Self {
        Sweep {
            rows: Vec::new(),
            breakdown: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            spans: Spans::new(),
            meter: Meter::new(),
        }
    }

    /// Run `f` once inside a span named `name`; returns its result and its
    /// time in microseconds at the reference machine speed.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let Sweep { spans, meter, .. } = self;
        let (out, t) = meter.time(|| spans.scope(name, f));
        (out, t.ms * 1e3)
    }

    /// Median time of `reps` calls of `f` inside one span named `name`,
    /// microseconds at the reference machine speed.
    fn median_us(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let Sweep { spans, meter, .. } = self;
        let samples: Vec<f64> = spans.scope(name, || {
            (0..reps).map(|_| meter.time(&mut f).1.ms * 1e3).collect()
        });
        stats::median(&samples).expect("at least one repetition")
    }

    /// Report one row.  The name must be in [`PER_LAYER`]; its unit comes
    /// from there.
    fn row(&mut self, name: &'static str, value: f64) {
        let metric = metric(name).unwrap_or_else(|| panic!("{name} is not a declared metric"));
        assert!(
            !self.rows.iter().any(|r| r.0 == name),
            "{name} reported twice"
        );
        self.rows.push((metric.name, metric.unit, value));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

pub fn metric(name: &str) -> Option<&'static LayerMetric> {
    PER_LAYER.iter().find(|m| m.name == name)
}

/// The sweep's sections.  Each runs in a process of its own, for the reason
/// each workload does: what the allocator already holds decides what an
/// operation pays.  The first large pass of a process pays first-touch heap
/// growth (`reconcile.first_pass_us_per_goal`), and quiet ticks slow down
/// only while the growing packet trace makes the heap grow
/// (`loop.tick_drift`); either, run after the other in one process, reuses
/// the other's freed memory and reads as free.
pub const SECTIONS: [Section; 3] = [
    ("fleet", fleet::rows),
    ("quiet", loops::quiet_rows),
    ("layers", |s, seed| {
        standalone::rows(s, seed);
        loops::rows(s, seed);
    }),
];

/// A section's name and the function that measures its rows.
pub type Section = (&'static str, fn(&mut Sweep, u64));

/// Run one section in this process.
pub fn run_section(name: &str, seed: u64) -> Option<Sweep> {
    let (_, rows) = SECTIONS.iter().find(|(n, _)| *n == name)?;
    let mut s = Sweep::new();
    rows(&mut s, seed);
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::END_TO_END;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` is hand-kept JSON; hold it to the tables the binary
    /// actually reports from.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        use crate::report::better;
        let mut declared = 0;
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.lower_is_better)
            );
            assert!(text.contains(&entry), "per_layer lacks {entry}");
            declared += 1;
        }
        for m in END_TO_END.iter().filter(|m| m.in_json) {
            // A count must repeat exactly; its recorded bound only leaves
            // room for the digits the driver's arithmetic may lose.
            let bound = match m.agreement {
                crate::report::Agreement::Exact => 0.01,
                crate::report::Agreement::Within(share) => share,
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}",
                m.name,
                m.unit,
                better(m.lower_is_better)
            );
            assert!(text.contains(&entry), "end_to_end lacks {entry}");
            declared += 1;
        }
        for w in &WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(text.contains(&entry), "workloads lacks {entry}");
            assert!(w.why.len() <= 200, "{}: why is too long", w.name);
            declared += 1;
        }
        assert_eq!(
            text.matches("{\"name\": ").count(),
            declared,
            "BENCHMARK.json declares something the binary does not report"
        );
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        for (i, m) in PER_LAYER.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                PER_LAYER[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
    }
}
