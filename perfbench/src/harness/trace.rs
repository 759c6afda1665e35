//! A small in-memory span recorder.
//!
//! Spans are recorded around calls into each layer's public functions,
//! from this crate only; nothing inside the measured crates is
//! instrumented. A span carries its name, the statement it belongs to, the
//! span that caused it, and its start and end. A layer's *self time* is
//! its span's duration minus the part of that interval its child spans
//! cover. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use super::stats::{median, sorted};
use super::{Ctx, Res};

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The statement (position in the stream) this span belongs to.
    pub op_id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`], consumed by [`Recorder::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

/// Records spans on one thread. The enclosing span is tracked on a stack,
/// so `enter`/`exit` must nest.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// While `false`, `enter` records nothing and costs a branch: the
    /// untraced phases of a run go through the same code as the traced one.
    pub recording: bool,
}

impl Recorder {
    /// Spans are stamped relative to `origin`; recorders that share one
    /// can be merged.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            recording: true,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op_id: u64) -> SpanId {
        if !self.recording {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op_id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
        // Tolerate an early return that skipped inner exits: close down to
        // and including `id`.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `more` to `all`, rebasing parent indexes.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: duration minus the time its direct children
/// cover. Children of one parent never overlap (one thread, nested
/// enter/exit), so their durations simply add.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(slot) = child_ns.get_mut(p as usize) {
                *slot += s.duration_ns();
            }
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Per span name: how many, the median duration and the median self time,
/// both in microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageStat {
    pub count: usize,
    pub median_us: f64,
    pub self_median_us: f64,
}

pub fn stage_stats(spans: &[Span]) -> BTreeMap<&'static str, StageStat> {
    let selfs = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0.push(s.duration_ns() as f64 / 1e3);
        e.1.push(self_ns as f64 / 1e3);
    }
    by_name
        .into_iter()
        .map(|(name, (total, own))| {
            let stat = StageStat {
                count: total.len(),
                median_us: median(&sorted(total)).unwrap_or(0.0),
                self_median_us: median(&sorted(own)).unwrap_or(0.0),
            };
            (name, stat)
        })
        .collect()
}

/// The most spans a trace file holds; a read-only run records hundreds of
/// thousands of client spans and the file is for reading, not archiving.
const MAX_SPANS_IN_FILE: usize = 50_000;

/// Write `{meta, stages, spans}` as JSON. `meta_json` is a rendered JSON
/// object (see `report::Meta`).
pub fn write_trace(path: &Path, meta_json: &str, spans: &[Span]) -> Res<()> {
    let mut out = String::with_capacity(64 * spans.len().min(MAX_SPANS_IN_FILE) + 1024);
    out.push_str("{\n\"meta\": ");
    out.push_str(meta_json);
    out.push_str(",\n\"stages\": {");
    for (i, (name, st)) in stage_stats(spans).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  \"{name}\": {{\"count\": {}, \"median_us\": {:.3}, \"self_median_us\": {:.3}}}",
            st.count, st.median_us, st.self_median_us
        ));
    }
    out.push_str(&format!(
        "\n}},\n\"spans_recorded\": {},\n\"spans\": [",
        spans.len()
    ));
    for (i, s) in spans.iter().take(MAX_SPANS_IN_FILE).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "\n  {{\"name\": \"{}\", \"op_id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.op_id, s.start_ns, s.end_ns
        ));
    }
    out.push_str("\n]\n}\n");
    std::fs::write(path, out).ctx("write trace file")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            span("statement", None, 0, 100),
            span("apply", Some(0), 10, 70),
            span("run_write", Some(1), 20, 50),
            span("flush", Some(0), 70, 95),
        ];
        // statement: 100 - (60 + 25); apply: 60 - 30; leaves keep all.
        assert_eq!(self_times_ns(&spans), vec![15, 30, 30, 25]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn recorder_tracks_the_enclosing_span() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.enter("statement", 7);
        let a = rec.enter("parse", 7);
        rec.exit(a);
        let b = rec.enter("apply", 7);
        let c = rec.enter("run_write", 7);
        rec.exit(c);
        rec.exit(b);
        rec.exit(root);
        let next = rec.enter("statement", 8);
        rec.exit(next);
        let parents: Vec<Option<u32>> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(rec.spans()[4].op_id, 8);

        rec.recording = false;
        let off = rec.enter("statement", 9);
        rec.exit(off);
        assert_eq!(rec.spans().len(), 5, "nothing is recorded while off");
    }

    #[test]
    fn merge_rebases_parents_and_stage_stats_take_medians() {
        let mut all = vec![span("statement", None, 0, 10), span("x", Some(0), 0, 4)];
        merge(
            &mut all,
            vec![span("statement", None, 0, 30), span("x", Some(0), 0, 10)],
        );
        assert_eq!(all[3].parent, Some(2));
        let stats = stage_stats(&all);
        assert_eq!(stats["x"].count, 2);
        assert_eq!(stats["x"].median_us, 0.004);
        assert_eq!(stats["statement"].self_median_us, 0.006);
    }
}
