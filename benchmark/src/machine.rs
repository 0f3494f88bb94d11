//! Timing on a machine whose speed wanders.
//!
//! The sandbox this benchmark runs in executes the same instructions up to
//! 1.5× slower or faster from one stretch of a few seconds to the next (a
//! fixed loop of pure arithmetic takes 140 ms, then 190 ms, then 140 ms
//! again; CPU time moves with wall time and no steal is accounted, so it is
//! the host, not preemption).  Medians of raw wall time over one 15 s run
//! then differ by up to 30% between two runs of the same code — no
//! regression bound below that could hold — and measuring for longer does
//! not help, because a run only ever samples a handful of such stretches.
//!
//! So every timed operation is bracketed by a *speed probe*: a fixed piece
//! of this benchmark's own code (ordered-map inserts of formatted keys and
//! small heap blocks — the instruction mix of the program under test) whose
//! duration measures how fast the machine is right now.  An operation's
//! reported time is its wall time rescaled to the reference speed:
//!
//! ```text
//! reported = wall × REFERENCE_SPIN_US ÷ mean(probe before, probe after)
//! ```
//!
//! The probe never changes with the program, so the rescaling cancels the
//! machine and nothing else: the same comparison of 72 identical passes
//! gave window medians ranging over 23% raw and 7% rescaled.  The raw
//! median and the median speed factor are printed beside every result.

use std::collections::BTreeMap;
use std::time::Instant;

/// Duration of one probe spin on the reference machine in an undisturbed
/// stretch, microseconds.  Reported times are "milliseconds at this speed";
/// parent and change are scaled by the same constant.
pub const REFERENCE_SPIN_US: f64 = 300.0;

/// A probe younger than this is reused: the machine's speed moves over
/// seconds, and probing around every call of a microsecond-long operation
/// would evict the caches it is measured with.
const PROBE_FRESH_US: f64 = 5_000.0;

/// One spin of the fixed reference work; returns its wall in microseconds.
fn spin_us() -> f64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..1500u64 {
        let key = format!("k{}", i.wrapping_mul(2_654_435_761) % 10_007);
        map.insert(key, vec![i as u8; 24]);
    }
    let mut acc = 0u64;
    for (k, v) in &map {
        acc += k.len() as u64 + u64::from(v[0]);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e6
}

/// The machine's speed right now: the median of five spins, after two
/// discarded ones that re-warm the caches the last operation evicted.
fn probe_us() -> f64 {
    spin_us();
    spin_us();
    let mut v = [spin_us(), spin_us(), spin_us(), spin_us(), spin_us()];
    v.sort_by(|a, b| a.total_cmp(b));
    v[2]
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall time as the clock read it, milliseconds.
    pub raw_ms: f64,
    /// Wall time rescaled to the reference machine speed, milliseconds.
    pub ms: f64,
}

/// Two calls that make up one operation.
impl std::ops::Add for Timed {
    type Output = Timed;
    fn add(self, other: Timed) -> Timed {
        Timed {
            raw_ms: self.raw_ms + other.raw_ms,
            ms: self.ms + other.ms,
        }
    }
}

/// Times calls, bracketing each with speed probes.
#[derive(Default)]
pub struct Meter {
    last: Option<(Instant, f64)>,
}

impl Meter {
    pub fn new() -> Self {
        Meter::default()
    }

    fn probe(&mut self) -> f64 {
        if let Some((at, us)) = self.last {
            if at.elapsed().as_secs_f64() * 1e6 < PROBE_FRESH_US {
                return us;
            }
        }
        let us = probe_us();
        self.last = Some((Instant::now(), us));
        us
    }

    /// Run `f`, timing it; the probes run outside the timed interval.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let (out, pending) = self.start(f);
        (out, self.finish(pending))
    }

    /// Probe, then run and time `f`.  The closing probe is taken by
    /// [`Self::finish`], which the caller may delay until it has released
    /// what the operation built: the probe allocates, and a heap crowded
    /// with a 300 MB fleet's freed fragments slows it by itself.
    pub fn start<R>(&mut self, f: impl FnOnce() -> R) -> (R, Pending) {
        let before_us = self.probe();
        let start = Instant::now();
        let out = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        (out, Pending { before_us, raw_ms })
    }

    /// Take the closing probe of a call begun with [`Self::start`].
    pub fn finish(&mut self, pending: Pending) -> Timed {
        let after_us = self.probe();
        let spin = (pending.before_us + after_us) / 2.0;
        Timed {
            raw_ms: pending.raw_ms,
            ms: pending.raw_ms * REFERENCE_SPIN_US / spin,
        }
    }
}

/// A timed call that still lacks its closing probe.
pub struct Pending {
    before_us: f64,
    raw_ms: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescaling_keeps_the_order_of_magnitude_and_the_raw_reading() {
        let mut meter = Meter::new();
        let ((), t) = meter.time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert!(t.raw_ms >= 20.0);
        // Whatever this machine's speed, it is within 10× of the reference.
        let slowdown = t.raw_ms / t.ms;
        assert!(slowdown > 0.1 && slowdown < 10.0, "{t:?}");
    }

    #[test]
    fn consecutive_calls_share_the_probe_between_them() {
        let mut meter = Meter::new();
        meter.time(|| ());
        let shared = meter.last.expect("probe kept").1;
        assert_eq!(meter.probe(), shared);
    }
}
