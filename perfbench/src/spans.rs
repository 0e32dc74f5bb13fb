//! In-memory span log for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! program (workload → artifact → cell) plus one aggregate span per
//! timed hook under each cell. A span's *busy* time is its duration
//! for an interval span and the summed call time for an aggregate; its
//! *self* time is its busy time minus its children's busy time.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    /// Nanoseconds since the log's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    pub busy_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log's origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the log's origin to `at` (0 if before it).
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens an interval span starting now; close it with [`close`](Self::close).
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.push(name.into(), parent, now, now, 0)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now.saturating_sub(span.start_ns);
    }

    /// Records an interval span whose bounds were taken elsewhere.
    pub fn interval(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.push(
            name.into(),
            parent,
            start_ns,
            end_ns,
            end_ns.saturating_sub(start_ns),
        )
    }

    /// Records an aggregate: `busy_ns` of calls spread over `[start, end]`.
    pub fn aggregate(&mut self, name: impl Into<String>, parent: usize, busy_ns: u64) -> usize {
        let (start, end) = (self.spans[parent].start_ns, self.spans[parent].end_ns);
        self.push(name.into(), Some(parent), start, end, busy_ns)
    }

    fn push(
        &mut self,
        name: String,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
        busy_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            busy_ns,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Busy time not covered by the span's direct children.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.busy_ns)
            .sum();
        self.spans[id].busy_ns.saturating_sub(children)
    }

    /// Every span as one JSON array, with its self time.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"busy_ns\": {}, \"self_ns\": {}}}",
                s.name.replace('"', "'"),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                self.self_ns(id)
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_busy_minus_direct_children() {
        let mut log = SpanLog::default();
        let root = log.interval("workload", None, 0, 1_000);
        let cell = log.interval("cell", Some(root), 100, 700);
        log.aggregate("governor.poll_batch", cell, 150);
        log.aggregate("sleep", cell, 50);
        let other = log.interval("cell", Some(root), 700, 900);

        assert_eq!(log.self_ns(root), 1_000 - 600 - 200);
        assert_eq!(log.self_ns(cell), 600 - 150 - 50);
        assert_eq!(log.self_ns(other), 200, "a leaf keeps its whole duration");
        let hook = log.spans().len() - 3;
        assert_eq!(log.self_ns(hook), 150);
        assert_eq!(
            log.spans()[hook].start_ns,
            100,
            "aggregates span their parent"
        );
    }

    #[test]
    fn self_time_never_goes_negative() {
        let mut log = SpanLog::default();
        let cell = log.interval("cell", None, 0, 100);
        log.aggregate("hook", cell, 250);
        assert_eq!(log.self_ns(cell), 0);
    }

    #[test]
    fn open_close_measures_host_time() {
        let mut log = SpanLog::default();
        let id = log.open("work", None);
        std::thread::sleep(std::time::Duration::from_millis(2));
        log.close(id);
        assert!(log.spans()[id].busy_ns >= 2_000_000);
        assert!(log.to_json().contains("\"self_ns\""));
    }
}
