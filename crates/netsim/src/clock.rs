//! Simulated time.
//!
//! The simulator never consults the wall clock; all timing flows from
//! [`SimTime`] values managed by the event queue.  Times are kept in
//! nanoseconds in a `u64`, which covers ~584 years of simulated time — far
//! beyond anything the experiments need.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// The splitmix64 finalizer: the one deterministic mixing function shared by
/// everything in the simulator that needs reproducible pseudo-randomness
/// (loss sampling, fault-plan generation).  Keeping a single copy means a
/// future tweak cannot silently diverge between samplers.
pub(crate) fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A point in simulated time, measured in nanoseconds since the start of the
/// simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable time; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`; saturates at zero if `earlier` is
    /// in the future.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    pub(crate) const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Nanoseconds in this duration.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration needed to serialize `bytes` at `bits_per_sec` onto a link.
    pub(crate) fn serialization(bytes: usize, bits_per_sec: u64) -> SimDuration {
        if bits_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let bits = bytes as u128 * 8;
        let ns = bits * 1_000_000_000u128 / bits_per_sec as u128;
        SimDuration(ns.min(u64::MAX as u128) as u64)
    }

    /// Multiply by an integer factor (saturating).
    pub(crate) fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }
}

/// A steppable tick clock: fixed-width ticks laid out on the simulated
/// timeline from a start instant.
///
/// The autonomic control loop and the telemetry schedule share one of these
/// so "tick `k`" means exactly the same instant to both — the loop advances
/// the network to [`StepClock::advance`]'s deadline with
/// [`Network::run_until`](crate::network::Network::run_until), which always
/// lands the event queue precisely on the deadline, so every run of the loop
/// replays tick-for-tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepClock {
    start: SimTime,
    tick: SimDuration,
    ticks: u64,
}

impl StepClock {
    /// A clock ticking every `tick`, starting at time zero.
    pub fn new(tick: SimDuration) -> Self {
        Self::starting_at(SimTime::ZERO, tick)
    }

    /// A clock ticking every `tick`, with tick boundaries laid out from
    /// `start` (usually "now" when the control loop is created mid-run).
    pub fn starting_at(start: SimTime, tick: SimDuration) -> Self {
        assert!(tick.as_nanos() > 0, "tick width must be non-zero");
        StepClock {
            start,
            tick,
            ticks: 0,
        }
    }

    /// Ticks completed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Complete one tick, returning its deadline.
    pub fn advance(&mut self) -> SimTime {
        self.ticks += 1;
        self.start + self.tick.saturating_mul(self.ticks)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10) + SimDuration::from_millis(5);
        assert_eq!(t, SimTime::from_millis(15));
        assert_eq!(t - SimTime::from_millis(5), SimDuration::from_millis(10));
        // Subtraction saturates rather than panicking.
        assert_eq!(
            SimTime::from_millis(1) - SimTime::from_millis(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn serialization_delay() {
        // 1500 bytes at 1 Gbps = 12 microseconds.
        let d = SimDuration::serialization(1500, 1_000_000_000);
        assert_eq!(d, SimDuration::from_micros(12));
        assert_eq!(SimDuration::serialization(1500, 0), SimDuration::ZERO);
    }

    #[test]
    fn step_clock_ticks_are_fixed_width_from_the_start_instant() {
        let mut c = StepClock::starting_at(SimTime::from_millis(30), SimDuration::from_millis(100));
        assert_eq!(c.ticks(), 0);
        assert_eq!(c.advance(), SimTime::from_millis(130));
        assert_eq!(c.advance(), SimTime::from_millis(230));
        assert_eq!(c.ticks(), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn step_clock_rejects_zero_ticks() {
        let _ = StepClock::new(SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration(999)), "999ns");
    }
}
