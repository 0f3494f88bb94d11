//! The [`Recorder`]: one cheap, cloneable handle bundling the trace
//! journal and the metrics registry.
//!
//! Instrumented code holds a `Recorder` and calls it unconditionally; a
//! disabled recorder ([`Recorder::disabled`], also the `Default`) carries
//! no storage at all, so every call is a single `Option` branch and the
//! hot path stays clean.  Clones share the same underlying stores, which
//! is how the NM runtime, the channels and the diagnoser all write into
//! one flight recorder.

use crate::journal::{Journal, TraceEvent, TraceKind};
use crate::metrics::MetricsRegistry;
use std::cell::RefCell;
use std::rc::Rc;

/// Direction of a tapped management message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageDirection {
    /// The device handed the message to the channel.
    Sent,
    /// The device drained the message from the channel.
    Received,
}

impl MessageDirection {
    fn as_str(self) -> &'static str {
        match self {
            MessageDirection::Sent => "sent",
            MessageDirection::Received => "received",
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    journal: Journal,
    metrics: MetricsRegistry,
}

/// Shared flight-recorder handle (see module docs).  Not `Send`: it stays
/// on the NM's calling thread, and the runtime's workers (path search, the
/// agents of a transaction round) hand back what they did for it to
/// record.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Rc<RefCell<Inner>>>);

impl Recorder {
    /// An enabled recorder with empty stores.
    pub fn new() -> Self {
        Recorder(Some(Rc::new(RefCell::new(Inner::default()))))
    }

    /// The no-op recorder: every call is a single branch, nothing is
    /// stored.  This is also the `Default`, so un-instrumented setups pay
    /// nothing.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// Does this handle record anything?
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    // ---- Journal ------------------------------------------------------

    /// Record a leaf trace event under the currently open span.
    pub fn event(&self, at_ns: u64, kind: TraceKind) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().journal.record(at_ns, kind);
        }
    }

    /// Record a trace event and open a span under it (pair with
    /// [`Recorder::exit`]).
    pub fn enter(&self, at_ns: u64, kind: TraceKind) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().journal.enter(at_ns, kind);
        }
    }

    /// Close the innermost open span.
    pub fn exit(&self) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().journal.exit();
        }
    }

    /// Number of journal events recorded so far.
    pub fn journal_len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.borrow().journal.len())
    }

    /// A copy of the journal's events, in order.
    pub fn journal_events(&self) -> Vec<TraceEvent> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().journal.events().to_vec())
    }

    /// The journal dump: a JSON array of events (`"[]"` when disabled).
    /// Deterministic — identical runs dump identical bytes.
    pub fn journal_json(&self) -> String {
        self.0
            .as_ref()
            .map_or_else(|| "[]".to_string(), |i| i.borrow().journal.to_json())
    }

    // ---- Metrics ------------------------------------------------------

    /// Add `n` to a counter.
    pub fn inc(&self, name: &str, n: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.inc(name, n);
        }
    }

    /// Record a histogram sample.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().metrics.observe(name, v);
        }
    }

    /// Current value of a counter (0 when disabled or absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |i| i.borrow().metrics.counter(name))
    }

    /// The management-channel tap: account one message by direction and
    /// wire category.
    pub fn on_message(&self, dir: MessageDirection, category: &str, bytes: usize) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            let d = dir.as_str();
            inner.metrics.inc(&format!("msg.{d}.{category}"), 1);
            inner.metrics.inc(&format!("msg.{d}.bytes"), bytes as u64);
        }
    }

    // ---- Export -------------------------------------------------------

    /// A snapshot of the metrics (empty when disabled).
    pub fn snapshot(&self) -> ObsSnapshot {
        let Some(inner) = &self.0 else {
            return ObsSnapshot::default();
        };
        let inner = inner.borrow();
        ObsSnapshot {
            metrics: inner.metrics.clone(),
            journal_events: inner.journal.len() as u64,
        }
    }

    /// Drop everything recorded so far (stores stay shared and enabled).
    pub fn clear(&self) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            inner.journal.clear();
            inner.metrics.clear();
        }
    }
}

/// A copy of a recorder's metrics and the size of its journal at one
/// moment, for a caller to read or compare after the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsSnapshot {
    /// The full metrics registry.
    pub metrics: MetricsRegistry,
    /// Journal size at snapshot time.
    pub journal_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_stores_nothing_and_never_panics() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.enter(1, TraceKind::TickStart { tick: 1, epoch: 0 });
        r.event(1, TraceKind::Note { text: "x".into() });
        r.exit();
        r.inc("c", 5);
        r.observe("h", 1.0);
        assert_eq!(r.journal_len(), 0);
        assert_eq!(r.journal_json(), "[]");
        assert_eq!(r.counter("c"), 0);
        assert_eq!(r.snapshot(), ObsSnapshot::default());
    }

    #[test]
    fn clones_share_one_flight_recorder() {
        let r = Recorder::new();
        let tap = r.clone();
        tap.on_message(MessageDirection::Sent, "Command", 42);
        r.event(
            7,
            TraceKind::Note {
                text: "tick".into(),
            },
        );
        assert_eq!(r.counter("msg.sent.Command"), 1);
        assert_eq!(r.counter("msg.sent.bytes"), 42);
        assert_eq!(tap.journal_len(), 1);
        let snap = r.snapshot();
        assert_eq!(snap.journal_events, 1);
        assert_eq!(snap.metrics.counter("msg.sent.Command"), 1);
    }
}
