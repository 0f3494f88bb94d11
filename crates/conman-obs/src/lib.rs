//! # conman-obs — the NM's flight recorder
//!
//! CONMan's pitch is that the NM can *explain* the network; this crate
//! makes the NM able to explain **itself**.  Two pillars, bundled behind
//! one cheap handle ([`Recorder`]):
//!
//! * **Trace journal** ([`journal`]) — causally-linked span events (tick →
//!   health probe → diagnosis frontier walk → repair pass → per-device
//!   stage/commit → verify), timestamped in simulated time only, so the
//!   same seeded scenario yields a **byte-identical** journal and a failed
//!   run can be post-mortemed from its dump alone ([`postmortem`]).
//! * **Metrics registry** ([`metrics`]) — counters and log2
//!   histograms (NM messages by wire category via the channel tap, repair
//!   latency in ticks, path lengths, exclusion-set sizes,
//!   frame budgets), exported as a serialisable [`ObsSnapshot`].
//!
//! The crate sits *below* the management layers and the simulator (it
//! depends only on the serde shims, so the offline checker `conman-analyze`
//! builds without `netsim`), and the channels, the runtime and the
//! diagnoser can all hold the same recorder.  [`Recorder::disabled`] is the
//! default and reduces every instrumentation call to one branch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod journal;
pub mod metrics;
pub mod postmortem;
pub mod recorder;

pub use journal::{Journal, TraceEvent, TraceKind};
pub use metrics::{Histogram, MetricsRegistry};
pub use postmortem::{DumpError, Postmortem, RepairPass};
pub use recorder::{MessageDirection, ObsSnapshot, Recorder};
