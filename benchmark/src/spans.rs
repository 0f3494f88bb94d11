//! The benchmark's own in-memory span recorder.
//!
//! Spans wrap the calls *into* each layer of the program from outside — the
//! program itself is not instrumented.  Each span carries a name, start and
//! end on one monotonic clock, the span that caused it and the operation it
//! belongs to.  Spans stay in memory and are written out once, when the
//! traced run ends.  A layer's *self time* is its span's duration minus the
//! part its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (pass, tick, round) the span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans of one traced run.
pub struct Spans {
    epoch: Instant,
    inner: RefCell<Inner>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans recorded from here on carry its id.
    pub fn next_op(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.op += 1;
        inner.op
    }

    /// Run `f` inside a span named `name`, child of whichever span is open.
    pub fn scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let start_ns = self.now_ns();
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len();
            let span = Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: inner.open.last().copied(),
                op: inner.op,
            };
            inner.spans.push(span);
            inner.open.push(id);
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.spans[id].end_ns = end_ns;
        inner.open.pop();
        out
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Total duration of every span named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        let inner = self.inner.borrow();
        inner
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Self time per span name: duration minus the children's durations.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let inner = self.inner.borrow();
        let mut children = vec![0u64; inner.spans.len()];
        for s in &inner.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, covered) in inner.spans.iter().zip(children) {
            *by_name.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
        }
        by_name
    }

    /// Write every span as one JSON document.
    pub fn flush(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let inner = self.inner.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in inner.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == inner.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_link_to_their_parent_and_share_its_op() {
        let spans = Spans::new();
        let op = spans.next_op();
        spans.scope("pass", || {
            spans.scope("plan", || {});
            spans.scope("execute", || spans.scope("stage", || {}));
        });
        let inner = spans.inner.borrow();
        let names: Vec<_> = inner.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("pass", None),
                ("plan", Some(0)),
                ("execute", Some(0)),
                ("stage", Some(2))
            ]
        );
        assert!(inner.spans.iter().all(|s| s.op == op));
        assert!(inner.open.is_empty());
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = Spans::new();
        spans.scope("outer", || {
            spans.scope("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let own = spans.self_ns_by_name();
        let outer = spans.total_ns("outer");
        let inner = spans.total_ns("inner");
        assert!(inner >= 5_000_000);
        assert_eq!(own["inner"], inner);
        assert_eq!(own["outer"], outer - inner);
    }

    #[test]
    fn flush_writes_one_json_document() {
        let spans = Spans::new();
        spans.scope("a", || spans.scope("b", || {}));
        // Beside the test executable: inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let path = exe.with_file_name(format!("spans-test-{}.json", std::process::id()));
        spans.flush(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(text.starts_with("{\"spans\": ["));
        assert!(text.contains("\"name\": \"b\""));
        assert!(text.contains("\"parent\": 0"));
        assert!(text.trim_end().ends_with("]}"));
    }
}
