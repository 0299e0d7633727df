//! Spans recorded by the harness around its calls into each layer. They
//! live in memory while a traced run measures and are written out as JSON
//! when it ends; no crate of the product records spans.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::report;

/// One timed call: `{name, start_ns, end_ns, parent, request_id}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `engine.submit_batch`.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<usize>,
    /// The request it served: the batch's index in the stream.
    pub request_id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Trace {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Trace {
    /// An empty trace on the same clock as `self`, to be [`Trace::absorb`]ed
    /// later (or dropped, when its pass is not the one kept).
    pub fn fork(&self) -> Trace {
        Trace {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    /// Appends the spans of a [`Trace::fork`], keeping their parent links.
    pub fn absorb(&mut self, fork: Trace) {
        let offset = self.spans.len();
        self.spans.extend(fork.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Runs `call` inside a span and returns its result and the span's
    /// index (to parent further spans on).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<usize>,
        call: impl FnOnce(&mut Trace, usize) -> T,
    ) -> (T, usize) {
        let index = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        let result = call(self, index);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        (result, index)
    }

    /// A leaf span around `call`.
    pub fn leaf<T>(
        &mut self,
        name: &'static str,
        request_id: u64,
        parent: Option<usize>,
        call: impl FnOnce() -> T,
    ) -> T {
        self.span(name, request_id, parent, |_, _| call()).0
    }

    /// Records a span that was timed elsewhere: it began at `start` and
    /// took `took`.
    pub fn record(&mut self, name: &'static str, request_id: u64, start: Instant, took: Duration) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + took.as_nanos() as u64,
            parent: None,
            request_id,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans called `name`, in seconds, and how many
    /// there were.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let mut ns = 0u64;
        let mut count = 0usize;
        for span in self.spans.iter().filter(|s| s.name == name) {
            ns += span.duration_ns();
            count += 1;
        }
        (ns as f64 / 1e9, count)
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                report::object(&[
                    ("name", report::string(s.name)),
                    ("start_ns", s.start_ns.to_string()),
                    ("end_ns", s.end_ns.to_string()),
                    (
                        "parent",
                        s.parent
                            .map_or_else(|| "null".to_owned(), |p| p.to_string()),
                    ),
                    ("request_id", s.request_id.to_string()),
                ])
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// A layer's self time across two rungs of the ladder: for every request
/// id both rungs served, the upper rung's span minus the lower rung's
/// (which did everything below that layer for the same request). Returns
/// the summed difference in nanoseconds — negative when the upper rung ran
/// faster, which is noise or parallelism, not hidden — and the number of
/// requests matched.
pub fn rung_self_time_ns(spans: &[Span], upper: &str, lower: &str) -> (i64, usize) {
    let by_request = |name: &str| -> HashMap<u64, u64> {
        let mut map = HashMap::new();
        for span in spans.iter().filter(|s| s.name == name) {
            *map.entry(span.request_id).or_insert(0) += span.duration_ns();
        }
        map
    };
    let below = by_request(lower);
    let mut total = 0i64;
    let mut matched = 0usize;
    for (request, upper_ns) in by_request(upper) {
        if let Some(lower_ns) = below.get(&request) {
            total += upper_ns as i64 - *lower_ns as i64;
            matched += 1;
        }
    }
    (total, matched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, request: u64) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: request,
        }
    }

    #[test]
    fn rung_self_time_pairs_spans_by_request_id() {
        let spans = vec![
            span("core.process", 0, 40, None, 0),
            span("core.process", 40, 90, None, 1),
            span("engine.batch", 100, 150, None, 0),
            span("engine.batch", 150, 190, None, 1),
            // Request 2 only ran on the upper rung: unmatched.
            span("engine.batch", 190, 300, None, 2),
        ];
        let (total, matched) = rung_self_time_ns(&spans, "engine.batch", "core.process");
        assert_eq!(matched, 2);
        assert_eq!(total, (50 - 40) + (40 - 50));
        // Several lower spans of one request add up before subtracting.
        let spans = vec![
            span("core.process", 0, 10, None, 7),
            span("core.process", 10, 30, None, 7),
            span("engine.batch", 50, 100, None, 7),
        ];
        assert_eq!(
            rung_self_time_ns(&spans, "engine.batch", "core.process"),
            (20, 1)
        );
    }

    #[test]
    fn trace_records_nesting_and_totals() {
        let mut trace = Trace::default();
        let (_, root) = trace.span("service.request", 3, None, |trace, me| {
            trace.leaf("service.parse", 3, Some(me), || std::hint::black_box(1 + 1));
        });
        assert_eq!(trace.spans().len(), 2);
        assert_eq!(trace.spans()[1].parent, Some(root));
        assert!(trace.spans()[0].end_ns >= trace.spans()[1].end_ns);
        assert_eq!(trace.total("service.parse").1, 1);
        // A fork shares the clock; absorbing it re-bases parent links.
        let mut fork = trace.fork();
        fork.span("engine.batch", 4, None, |fork, me| {
            fork.leaf("core.batch", 4, Some(me), || ());
        });
        trace.absorb(fork);
        assert_eq!(trace.spans()[3].parent, Some(2));
        assert!(trace.spans()[2].start_ns >= trace.spans()[0].end_ns);
        let json = trace.to_json();
        assert!(json.contains("\"name\": \"service.parse\""), "{json}");
        assert!(json.contains("\"parent\": 0"), "{json}");
        assert!(json.contains("\"parent\": null"), "{json}");
    }
}
