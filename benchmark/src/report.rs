//! Turning a run into output: the table a person reads, and the one-line
//! JSON result the driver reads.

use crate::fixtures::table6_holds;
use crate::layers;
use crate::stats::fmt_opt;
use crate::workloads::{EndToEnd, Plan, Workload, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// How two runs of one end-to-end metric are compared by `--check`; for the
/// metrics of the result line, also the regression bound `BENCHMARK.json`
/// records (a test holds the two together).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agreement {
    /// A count: equal seeds must give the identical value.
    Exact,
    /// A measurement: the second run may be worse than the first by at most
    /// this share.
    Within(f64),
}

/// One end-to-end metric: its name, unit, which direction is better, how
/// `--check` compares it, and whether the driver's JSON line carries it (a
/// metric that is `null` or zero on some workload cannot be: the driver
/// needs a non-zero number from every workload).
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub agreement: Agreement,
    pub in_json: bool,
    pub value: fn(&EndToEnd) -> Option<f64>,
}

pub const END_TO_END: [Metric; 12] = [
    Metric {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        agreement: Agreement::Within(0.25),
        in_json: true,
        value: |e| e.setup_s,
    },
    Metric {
        name: "op_wall_ms_p50",
        unit: "ms",
        lower_is_better: true,
        agreement: Agreement::Within(0.20),
        in_json: true,
        value: |e| e.op_wall_ms.median,
    },
    Metric {
        name: "op_wall_ms_p90",
        unit: "ms",
        lower_is_better: true,
        agreement: Agreement::Within(0.20),
        in_json: false,
        value: |e| e.op_wall_ms_p90,
    },
    Metric {
        name: "goals_per_s",
        unit: "1/s",
        lower_is_better: false,
        agreement: Agreement::Within(0.20),
        in_json: true,
        value: |e| Some(e.goals_per_s),
    },
    Metric {
        name: "mgmt_msgs_per_goal",
        unit: "count",
        lower_is_better: true,
        agreement: Agreement::Exact,
        in_json: true,
        value: |e| Some(e.mgmt_msgs_per_goal),
    },
    Metric {
        name: "mgmt_bytes_per_goal",
        unit: "B",
        lower_is_better: true,
        agreement: Agreement::Exact,
        in_json: true,
        value: |e| Some(e.mgmt_bytes_per_goal),
    },
    Metric {
        name: "nm_msgs_per_goal",
        unit: "count",
        lower_is_better: true,
        agreement: Agreement::Exact,
        in_json: false,
        value: |e| Some(e.nm_msgs_per_goal),
    },
    Metric {
        name: "nm_bytes_per_goal",
        unit: "B",
        lower_is_better: true,
        agreement: Agreement::Exact,
        in_json: false,
        value: |e| Some(e.nm_bytes_per_goal),
    },
    Metric {
        name: "frames_per_goal",
        unit: "count",
        lower_is_better: true,
        agreement: Agreement::Exact,
        in_json: false,
        value: |e| Some(e.frames_per_goal),
    },
    Metric {
        name: "ticks_to_repair",
        unit: "ticks",
        lower_is_better: true,
        agreement: Agreement::Exact,
        in_json: false,
        value: |e| e.ticks_to_repair.map(|t| t as f64),
    },
    Metric {
        name: "failed_ops_ratio",
        unit: "ratio",
        lower_is_better: true,
        agreement: Agreement::Exact,
        in_json: false,
        value: |e| Some(e.failed_ops_ratio),
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        agreement: Agreement::Within(0.10),
        in_json: true,
        value: |e| Some(e.peak_rss_mb),
    },
];

/// Prefix of the lines `--check` and the all-workloads mode parse back out of
/// a child's output.
const METRIC_LINE: &str = "  metric ";

pub fn better(lower_is_better: bool) -> &'static str {
    if lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number, got {v}");
    format!("{v}")
}

/// The driver's result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Run one workload untraced in this process and print its end-to-end
/// metrics: the table, then the result line.
pub fn untraced_run(w: &Workload, seed: u64, seconds: u64) -> ExitCode {
    let plan = Plan::new(w, seed, seconds);
    let table6 = table6_holds();
    let outcome = (w.run)(&plan);
    let e2e = EndToEnd::of(&outcome);

    println!(
        "workload {} seed {seed} timed_ops {} warmup_ops {} goals_per_op {}",
        w.name, plan.timed_ops, plan.warmup_ops, outcome.goals_per_op
    );
    println!("  why: {}", w.why);
    println!("  op_wall_ms {}", e2e.op_wall_ms);
    println!(
        "  setup_s n={} (set-ups in this run; the median is reported)",
        outcome.setup_s.len()
    );
    for m in &END_TO_END {
        println!(
            "{METRIC_LINE}{:<22} {:<6} {:<22} ({} is better)",
            m.name,
            m.unit,
            fmt_metric((m.value)(&e2e)),
            better(m.lower_is_better),
        );
    }
    println!(
        "  note   {:<32} {:<6} {}   (as the clock read it; the machine ran {}x slower than the reference speed)",
        "raw_op_wall_ms_p50",
        "ms",
        fmt_opt(e2e.raw_op_wall_ms_p50),
        fmt_opt(e2e.machine_slowdown),
    );
    for (name, unit, value) in &outcome.notes {
        println!("  note   {name:<32} {unit:<6} {value:.3}");
    }
    for why in &outcome.failures {
        println!("  FAILED post-condition: {why}");
    }
    if let Err(why) = &table6 {
        println!("  FAILED {why}");
    }

    let correct = outcome.failed == 0 && table6.is_ok();
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .filter(|m| m.in_json)
        .map(|m| {
            let v = (m.value)(&e2e).expect("a driver metric exists on every workload");
            (m.name, m.unit, v)
        })
        .collect();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}

/// All digits: `--check` compares what it parses back.
fn fmt_metric(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), json_number)
}

/// Prefix of a per-layer row in a sweep section's output.
const LAYER_LINE: &str = "  layer  ";
/// Prefix of a section's count of checks made and failed.
const CHECKS_LINE: &str = "  checks ";

/// Run one section of the layer sweep in this process (a child of
/// [`traced_run`]) and print its rows.
pub fn section_run(section: &str, workload: &str, seed: u64) -> ExitCode {
    let Some(sweep) = layers::run_section(section, seed) else {
        eprintln!("unknown sweep section {section}");
        return ExitCode::from(2);
    };
    for (name, unit, value) in &sweep.rows {
        let m = layers::metric(name).expect("rows come from the table");
        println!(
            "{LAYER_LINE}{name:<36} {unit:<6} {:<22} ({} is better) -> {}",
            json_number(*value),
            better(m.lower_is_better),
            m.moves
        );
    }
    for line in &sweep.breakdown {
        println!("  {line}");
    }
    for why in &sweep.failures {
        println!("  FAILED {why}");
    }
    println!("{CHECKS_LINE}{} {}", sweep.attempted, sweep.failures.len());
    let path = trace_path(&format!("{workload}-{section}"));
    match sweep.spans.flush(&path) {
        Ok(()) => println!(
            "  spans  {} written to {}",
            sweep.spans.len(),
            path.display()
        ),
        Err(e) => println!("  spans  not written: {e}"),
    }
    ExitCode::SUCCESS
}

/// Run the traced layer sweep, one child process per section, and print the
/// per-layer metrics: the sections' tables, then the result line.
pub fn traced_run(w: &Workload, seed: u64) -> ExitCode {
    println!(
        "traced layer sweep (requested beside workload {}) seed {seed}",
        w.name
    );
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (section, _) in &layers::SECTIONS {
        let args = [
            "--section",
            section,
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
        ];
        let text = match spawn_self(&args) {
            Ok(text) => text,
            Err(why) => {
                eprintln!("sweep section {section}: {why}");
                return ExitCode::FAILURE;
            }
        };
        print!("{text}");
        for line in text.lines() {
            let mut fields = line.split_whitespace().skip(1);
            if line.starts_with(LAYER_LINE) {
                if let (Some(name), Some(_unit), Some(Ok(value))) =
                    (fields.next(), fields.next(), fields.next().map(str::parse))
                {
                    values.insert(name.to_string(), value);
                }
            } else if line.starts_with(CHECKS_LINE) {
                let mut counts = fields.filter_map(|f| f.parse::<u64>().ok());
                attempted += counts.next().unwrap_or(0);
                failed += counts.next().unwrap_or(0);
            }
        }
    }
    // Only a complete table is a result.
    let mut rows = Vec::with_capacity(layers::PER_LAYER.len());
    for m in &layers::PER_LAYER {
        let Some(value) = values.get(m.name) else {
            eprintln!("the sweep did not measure {}", m.name);
            return ExitCode::FAILURE;
        };
        rows.push((m.name, m.unit, *value));
    }
    println!(
        "{}",
        result_line(failed == 0, attempted.max(1), failed, &rows)
    );
    ExitCode::SUCCESS
}

/// `<build dir>/benchmark/trace-<name>.json`, beside the `release/`
/// directory the executable runs from — inside the checkout whichever
/// target directory the build used.
fn trace_path(name: &str) -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let build_dir = exe
        .parent()
        .and_then(|release| release.parent())
        .map_or_else(|| std::path::PathBuf::from("target"), |p| p.to_path_buf());
    build_dir
        .join("benchmark")
        .join(format!("trace-{name}.json"))
}

/// Run this same executable with `args` as a child process, wait for it,
/// and return what it printed.
fn spawn_self(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// The metrics one child process printed, by name (`None` = `null`).
pub type Parsed = BTreeMap<String, Option<f64>>;

/// What one child run reported.
pub struct ChildRun {
    pub metrics: Parsed,
    pub correct: bool,
}

/// Run one workload in a child process of this same executable — heap
/// warmth and peak RSS must not bleed from one workload into the next —
/// echo its output, and parse its metric lines back.
pub fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<ChildRun, String> {
    let text = spawn_self(&[
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .map_err(|why| format!("{workload}: {why}"))?;
    let mut run = ChildRun {
        metrics: Parsed::new(),
        correct: false,
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(METRIC_LINE) {
            let mut fields = rest.split_whitespace();
            if let (Some(name), Some(_unit), Some(value)) =
                (fields.next(), fields.next(), fields.next())
            {
                run.metrics.insert(name.to_string(), value.parse().ok());
            }
        }
        if line.starts_with("{\"correct\": ") {
            run.correct = line.starts_with("{\"correct\": true");
            continue; // the result line is for the driver, not for people
        }
        println!("{line}");
    }
    Ok(run)
}

/// Every workload untraced, one child process after another, then one
/// traced run for the per-layer numbers.
pub fn run_all(seed: u64, seconds: u64) -> ExitCode {
    let mut ok = true;
    for w in &WORKLOADS {
        match run_child(w.name, seed, seconds, false) {
            Ok(run) => ok &= run.correct,
            Err(why) => {
                eprintln!("{why}");
                ok = false;
            }
        }
    }
    match run_child(WORKLOADS[0].name, seed, seconds, true) {
        Ok(run) => ok &= run.correct,
        Err(why) => {
            eprintln!("{why}");
            ok = false;
        }
    }
    println!("{}", if ok { "all correct" } else { "NOT CORRECT" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
