//! Outside-in tracing: spans recorded by the harness around each call it
//! makes into a layer's public API.
//!
//! Spans stay in memory and are written out when the run ends. One
//! tracer belongs to one thread; every span of one operation carries the
//! operation's id, and a span's parent is the span that was open when it
//! started. With tracing off, `enter` and `exit` read no clock, so the
//! end-to-end pass pays one branch per call site.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Operation the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the tracer's list, if any.
    pub parent: Option<usize>,
    /// Layer call the span wraps (`sql.prepare`, `core.cursor.drain`, ...).
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type Token = Option<usize>;

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    /// Spans are recorded only while this is set; the traced pass flips
    /// it between rounds to measure its own overhead.
    pub enabled: bool,
    epoch: Instant,
    thread: u32,
    next_op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose operation ids start at `thread << 32`, so tracers
    /// of several client threads can be merged without clashes.
    pub fn new(epoch: Instant, thread: u32, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch,
            thread,
            next_op: u64::from(thread) << 32,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(Instant::now(), 0, false)
    }

    /// Open a span named `name` under the currently open span.
    pub fn enter(&mut self, name: &'static str) -> Token {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op: self.next_op,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span `token` names. Spans close innermost first.
    pub fn exit(&mut self, token: Token) {
        let Some(idx) = token else { return };
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span that has no child spans.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let token = self.enter(name);
        let out = f();
        self.exit(token);
        out
    }

    /// Run `f` inside a span under which `f` may open further spans.
    pub fn nested<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let token = self.enter(name);
        let out = f(self);
        self.exit(token);
        out
    }

    /// Run `f` as the next operation, inside a root span named `name`.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.next_op += 1;
        self.nested(name, f)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn thread(&self) -> u32 {
        self.thread
    }
}

/// Self time of every span: its duration minus the part of it its child
/// spans cover. Children of one parent never overlap (one thread, strict
/// nesting), so the subtraction cannot go below zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// For every span called `parent`, the summed duration in milliseconds of
/// its direct children called one of `children`.
pub fn child_sums_ms(spans: &[Span], parent: &str, children: &[&str]) -> Vec<f64> {
    let mut sums: Vec<Option<u64>> = spans
        .iter()
        .map(|s| (s.name == parent).then_some(0))
        .collect();
    for s in spans {
        if let Some(sum) = s.parent.and_then(|p| sums[p].as_mut()) {
            if children.contains(&s.name) {
                *sum += s.duration_ns();
            }
        }
    }
    sums.into_iter()
        .flatten()
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

/// Check the structural promises of a trace: every span ends no earlier
/// than it starts, lies inside its parent and shares its parent's
/// operation id. Returns the first violation.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} `{}` leaves its parent `{}`",
                    s.name, parent.name
                ));
            }
            if s.op != parent.op {
                return Err(format!("span {i} `{}` changes operation id", s.name));
            }
        }
    }
    Ok(())
}

/// Per span name over several threads' traces: call count, total self
/// time and total duration, sorted by self time, largest first. This is
/// the table that says what share of an operation a layer can save at
/// most.
pub fn self_time_table<'a>(
    traces: impl IntoIterator<Item = &'a [Span]>,
) -> Vec<(&'static str, usize, u64, u64)> {
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for spans in traces {
        for (s, own_ns) in spans.iter().zip(self_times(spans)) {
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += own_ns;
                    r.3 += s.duration_ns();
                }
                None => rows.push((s.name, 1, own_ns, s.duration_ns())),
            }
        }
    }
    rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
    rows
}

/// Write the spans of several tracers as JSON lines: one object per span
/// with `thread`, `op`, `id`, `parent` (`null` for a root), `name`,
/// `start_ns` and `end_ns`. `id` and `parent` index into one thread's
/// spans.
pub fn write_jsonl(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        for (id, s) in t.spans().iter().enumerate() {
            let line = Json::obj([
                ("thread", Json::Num(f64::from(t.thread()))),
                ("op", Json::Num(s.op as f64)),
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_times_sum_to_the_root_and_children_fit_inside() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(1, Some(0), "sql.prepare", 5, 25),
            span(1, Some(0), "core.cursor.drain", 30, 90),
            span(1, Some(2), "harness.check", 40, 50),
        ];
        validate(&spans).unwrap();
        let own = self_times(&spans);
        assert_eq!(own, vec![20, 20, 50, 10]);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration_ns());
        assert_eq!(
            child_sums_ms(&spans, "op", &["sql.prepare", "core.cursor.drain"]),
            vec![80.0 / 1e6]
        );
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(s.duration_ns() <= spans[p].duration_ns());
            }
        }
    }

    #[test]
    fn validate_rejects_a_child_outside_its_parent() {
        let spans = vec![span(1, None, "op", 10, 20), span(1, Some(0), "x", 15, 25)];
        assert!(validate(&spans).is_err());
        let spans = vec![span(1, None, "op", 10, 20), span(2, Some(0), "x", 12, 15)];
        assert!(validate(&spans).is_err());
    }

    #[test]
    fn recorded_spans_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), 3, true);
        t.op("op", |t| t.leaf("sql.prepare", || ()));
        t.enabled = false;
        let none = t.enter("op");
        t.exit(none);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].op, (3u64 << 32) + 1);
        assert_eq!(t.spans()[1].parent, Some(0));
        validate(t.spans()).unwrap();
        let table = self_time_table([t.spans()]);
        assert_eq!(table.len(), 2);
        assert_eq!(
            table.iter().map(|r| r.2).sum::<u64>(),
            t.spans()[0].duration_ns()
        );
    }
}
