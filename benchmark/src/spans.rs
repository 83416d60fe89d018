//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer of the program.
//!
//! A span is `{name, start_ns, end_ns, parent, run}`; the spans of one
//! repeat share a `run` label (workload + repeat number) and hang under a
//! root span named `run`. A call made thousands of times inside a window
//! is not recorded once per call: it is folded into one *aggregated* span
//! per `(name, parent)` that carries the call `count` and the summed
//! `total_ns`. A span's self time is its duration minus the time its
//! children cover, so the self times of a tree add up to its root.
//!
//! Nothing is written while a run measures: spans stay in memory and
//! [`SpanLog::to_json`] renders them once the run has ended.

use std::time::Instant;

use crate::adapter::Json;

/// One recorded span. `count == 1` for a plain span, whose `total_ns` is
/// its duration; an aggregated span counts its calls and sums them.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.window`.
    pub name: &'static str,
    /// Start, nanoseconds since the log was created.
    pub start_ns: u64,
    /// End, nanoseconds since the log was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Index into the log's run labels.
    pub run: usize,
    /// Calls folded into this span.
    pub count: u64,
    /// Time covered: the duration of a plain span, the summed call
    /// durations of an aggregated one.
    pub total_ns: u64,
}

/// Handle of an open span, returned by [`SpanLog::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

/// The span recorder. A disabled log (untraced runs) ignores every call,
/// so workload code is written once for both binaries.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    runs: Vec<String>,
}

impl SpanLog {
    /// Creates a log; `enabled: false` makes every method a no-op.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            runs: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// All spans recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded (an aggregated span counts once).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Opens a root span named `run` labelled `label`; every span opened
    /// before the matching [`SpanLog::end`] belongs to that run.
    pub fn begin_run(&mut self, label: String) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        assert!(self.open.is_empty(), "a run span is a root");
        self.runs.push(label);
        self.begin("run")
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        let id = self.push(name, now, now, 1, 0);
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let now = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        span.total_ns = now - span.start_ns;
    }

    /// Records an already-finished span with explicit times under the
    /// innermost open span — for an interval the program timed itself
    /// (e.g. the `wall_ns` an `experiments::` runner returns).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.push(name, start_ns, end_ns, 1, end_ns.saturating_sub(start_ns));
        }
    }

    /// Start mark for [`SpanLog::aggregate`]; 0 when disabled.
    pub fn tick(&self) -> u64 {
        if self.enabled {
            self.now_ns()
        } else {
            0
        }
    }

    /// Folds one call that began at `started_ns` (from [`SpanLog::tick`])
    /// into the aggregated span `(name, innermost open span)`.
    pub fn aggregate(&mut self, name: &'static str, started_ns: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let parent = self.open.last().copied();
        let existing = self
            .spans
            .iter()
            .rposition(|s| s.name == name && s.parent == parent);
        match existing {
            Some(i) => {
                let span = &mut self.spans[i];
                span.end_ns = now;
                span.count += 1;
                span.total_ns += now - started_ns;
            }
            None => {
                self.push(name, started_ns, now, 1, now - started_ns);
            }
        }
    }

    fn push(&mut self, name: &'static str, start: u64, end: u64, count: u64, total: u64) -> usize {
        assert!(!self.runs.is_empty(), "open a run before recording spans");
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: self.open.last().copied(),
            run: self.runs.len() - 1,
            count,
            total_ns: total,
        });
        self.spans.len() - 1
    }

    /// Self time of span `i`: its covered time minus its children's.
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.total_ns)
            .sum();
        self.spans[i].total_ns.saturating_sub(children)
    }

    /// Indices of the root (`run`) spans.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].parent.is_none())
            .collect()
    }

    /// Sum of self times over the tree rooted at `root` — equals the
    /// root's duration when no child overruns its parent.
    pub fn tree_self_ns(&self, root: usize) -> u64 {
        let mut total = 0;
        let mut todo = vec![root];
        while let Some(i) = todo.pop() {
            total += self.self_ns(i);
            todo.extend((0..self.spans.len()).filter(|&c| self.spans[c].parent == Some(i)));
        }
        total
    }

    /// Covered time of every span called `name`, one value per run that
    /// has one, in run order.
    pub fn totals_by_run(&self, name: &str) -> Vec<u64> {
        let mut out = vec![None; self.runs.len()];
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out[s.run].get_or_insert(0) += s.total_ns;
        }
        out.into_iter().flatten().collect()
    }

    /// Renders the log as one JSON document (written by the caller after
    /// the run has ended).
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj([
                    ("id", Json::from(i)),
                    ("name", Json::from(s.name)),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("run", Json::from(self.runs[s.run].as_str())),
                    ("count", Json::UInt(s.count)),
                    ("total_ns", Json::UInt(s.total_ns)),
                    ("self_ns", Json::UInt(self.self_ns(i))),
                ])
                .render()
            })
            .collect();
        // One span per line keeps the file readable and greppable.
        format!(
            "{{\"schema\":\"mnbench.trace/v1\",\"spans\":[\n{}\n]}}\n",
            spans.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, start_ns, end_ns, parent, count, total_ns)`.
    type Row = (&'static str, u64, u64, Option<usize>, u64, u64);

    /// Builds a log with hand-set times (the clock is not under test).
    fn fixed(spans: &[Row]) -> SpanLog {
        let mut log = SpanLog::new(true);
        log.runs.push("w#0".to_string());
        for &(name, start_ns, end_ns, parent, count, total_ns) in spans {
            log.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                run: 0,
                count,
                total_ns,
            });
        }
        log
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let log = fixed(&[
            ("run", 0, 1000, None, 1, 1000),
            ("testbed.build", 0, 100, Some(0), 1, 100),
            ("sim.window", 100, 800, Some(0), 1, 700),
            ("collect", 800, 990, Some(0), 1, 190),
            ("sim.metrics.export", 800, 900, Some(3), 1, 100),
        ]);
        assert_eq!(log.self_ns(0), 10);
        assert_eq!(log.self_ns(3), 90);
        assert_eq!(log.self_ns(4), 100);
        assert_eq!(log.tree_self_ns(0), 1000);
        assert_eq!(log.roots(), vec![0]);
    }

    #[test]
    fn aggregated_children_subtract_their_total_not_their_extent() {
        // 40 calls of 5 ns spread over the whole window: the extent is
        // 700 ns but only 200 ns were spent inside the calls.
        let log = fixed(&[
            ("run", 0, 1000, None, 1, 1000),
            ("sim.window", 100, 800, Some(0), 1, 700),
            ("stack.ip.send", 100, 800, Some(1), 40, 200),
        ]);
        assert_eq!(log.self_ns(1), 500);
        assert_eq!(log.tree_self_ns(0), 1000);
    }

    #[test]
    fn aggregate_folds_calls_by_name_and_parent() {
        let mut log = SpanLog::new(true);
        let run = log.begin_run("w#0".to_string());
        let window = log.begin("sim.window");
        for _ in 0..3 {
            let t = log.tick();
            log.aggregate("stack.ip.send", t);
        }
        let t = log.tick();
        log.aggregate("core.mh.start_switch", t);
        log.end(window);
        let collect = log.begin("collect");
        let t = log.tick();
        log.aggregate("stack.ip.send", t);
        log.end(collect);
        log.end(run);
        let sends: Vec<&Span> = log
            .spans()
            .iter()
            .filter(|s| s.name == "stack.ip.send")
            .collect();
        assert_eq!(sends.len(), 2, "one aggregated span per parent");
        assert_eq!((sends[0].count, sends[1].count), (3, 1));
        assert_eq!(sends[0].parent, Some(1));
        assert_eq!(log.len(), 6);
        assert!(log.tree_self_ns(0) <= log.spans()[0].total_ns);
        assert!(log.to_json().contains("\"run\":\"w#0\""));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let run = log.begin_run("w#0".to_string());
        let s = log.begin("sim.window");
        log.aggregate("stack.ip.send", log.tick());
        log.record("sim.window", 0, 5);
        log.end(s);
        log.end(run);
        assert!(log.is_empty());
        assert_eq!(log.tick(), 0);
    }

    #[test]
    fn totals_by_run_lists_one_value_per_run() {
        let mut log = fixed(&[
            ("run", 0, 100, None, 1, 100),
            ("sim.window", 10, 60, Some(0), 1, 50),
        ]);
        log.runs.push("w#1".to_string());
        log.spans.push(Span {
            name: "sim.window",
            start_ns: 200,
            end_ns: 270,
            parent: None,
            run: 1,
            count: 1,
            total_ns: 70,
        });
        assert_eq!(log.totals_by_run("sim.window"), vec![50, 70]);
        assert!(log.totals_by_run("absent").is_empty());
    }
}
