//! `--check`: run the untraced set twice with one seed and compare.
//!
//! Count metrics must be identical — equal seeds generate equal inputs and
//! the program is deterministic over simulated time.  Timings and memory
//! must agree within their regression bound: a bound a quiet machine cannot
//! hold between two runs of the same code would reject changes by noise.

use crate::report::{run_child, Agreement, Metric, Parsed, END_TO_END};
use crate::stats::fmt_opt;
use crate::workloads::WORKLOADS;
use std::process::ExitCode;

/// Do two readings of one metric agree?  Returns the verdict's label.
fn compare(m: &Metric, first: Option<f64>, second: Option<f64>) -> Result<String, String> {
    match (first, second) {
        (None, None) => Ok("n/a".to_string()),
        (Some(a), Some(b)) => {
            if m.name == "failed_ops_ratio" && (a != 0.0 || b != 0.0) {
                return Err("operations failed".to_string());
            }
            match m.agreement {
                Agreement::Exact if a == b => Ok("equal".to_string()),
                Agreement::Exact => Err("differs".to_string()),
                Agreement::Within(bound) => {
                    let share = (b - a).abs() / a.abs();
                    let label = format!("{:+.1}% of {:.0}%", (b - a) / a * 100.0, bound * 100.0);
                    if share <= bound {
                        Ok(label)
                    } else {
                        Err(label)
                    }
                }
            }
        }
        _ => Err("null on one run only".to_string()),
    }
}

fn compare_sets(workload: &str, first: &Parsed, second: &Parsed) -> bool {
    let mut ok = true;
    println!(
        "check {workload:<12} {:<22} {:>14} {:>14}  verdict",
        "metric", "first", "second"
    );
    for m in &END_TO_END {
        let a = first.get(m.name).copied().flatten();
        let b = second.get(m.name).copied().flatten();
        let verdict = compare(m, a, b);
        ok &= verdict.is_ok();
        println!(
            "check {workload:<12} {:<22} {:>14} {:>14}  {}",
            m.name,
            fmt_opt(a),
            fmt_opt(b),
            match &verdict {
                Ok(label) => format!("ok ({label})"),
                Err(label) => format!("FAIL ({label})"),
            }
        );
    }
    ok
}

pub fn run(seed: u64, seconds: u64) -> ExitCode {
    let mut ok = true;
    let mut sets = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in &WORKLOADS {
            match run_child(w.name, seed, seconds, false) {
                Ok(run) => {
                    ok &= run.correct;
                    set.push(run.metrics);
                }
                Err(why) => {
                    eprintln!("{why}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    for (i, w) in WORKLOADS.iter().enumerate() {
        ok &= compare_sets(w.name, &sets[0][i], &sets[1][i]);
    }
    println!(
        "{}",
        if ok {
            "check passed: both sets correct and in agreement"
        } else {
            "CHECK FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static Metric {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn counts_must_be_identical_and_timings_within_their_bound() {
        let msgs = metric("nm_msgs_per_goal");
        assert!(compare(msgs, Some(19.5), Some(19.5)).is_ok());
        assert!(compare(msgs, Some(19.5), Some(19.500001)).is_err());
        let p50 = metric("op_wall_ms_p50");
        assert!(compare(p50, Some(100.0), Some(119.0)).is_ok());
        assert!(compare(p50, Some(100.0), Some(81.0)).is_ok());
        assert!(compare(p50, Some(100.0), Some(121.0)).is_err());
    }

    #[test]
    fn null_agrees_only_with_null_and_any_failed_op_fails() {
        let p90 = metric("op_wall_ms_p90");
        assert!(compare(p90, None, None).is_ok());
        assert!(compare(p90, Some(1.0), None).is_err());
        let failed = metric("failed_ops_ratio");
        assert!(compare(failed, Some(0.0), Some(0.0)).is_ok());
        assert!(compare(failed, Some(0.1), Some(0.1)).is_err());
    }
}
