//! Harness-side spans around each call into a layer.
//!
//! Spans are kept in memory and written out when the run ends. With the
//! tracer disabled a span is one branch, so the end-to-end metrics are
//! measured on the same code path with tracing off.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The op the span belongs to; spans of one op share it.
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The id the next spans are filed under.
    pub fn begin_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// [`Tracer::span`] that also returns the wall time of `f`, measured
    /// whether or not the tracer is enabled.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, u64) {
        let start = Instant::now();
        let out = self.span(name, f);
        (out, start.elapsed().as_nanos() as u64)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Children may nest further (their own
/// children do not count twice) and may overlap each other (the
/// overlap counts once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Per op, the summed value of `value(index, span)` over the spans
/// `pick` accepts, in milliseconds and op order. Ops without such a
/// span are left out.
fn per_op_ms(
    spans: &[Span],
    pick: impl Fn(&Span) -> bool,
    value: impl Fn(usize, &Span) -> u64,
) -> Vec<f64> {
    let mut by_op: std::collections::BTreeMap<u32, u64> = Default::default();
    for (i, s) in spans.iter().enumerate() {
        if pick(s) {
            *by_op.entry(s.op).or_default() += value(i, s);
        }
    }
    by_op.into_values().map(|ns| ns as f64 / 1e6).collect()
}

/// Per op, the total self time of the spans named `name`, in ms.
pub fn self_ms_per_op(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    per_op_ms(spans, |s| s.name == name, |i, _| self_ns[i])
}

/// Per op, the share of the op's root spans that no child span
/// accounts for, in percent: what the layer breakdown fails to
/// attribute.
pub fn attribution_gap_pct_per_op(spans: &[Span], self_ns: &[u64]) -> Vec<f64> {
    let root_self = per_op_ms(spans, |s| s.parent.is_none(), |i, _| self_ns[i]);
    let root_dur = per_op_ms(spans, |s| s.parent.is_none(), |_, s| s.duration_ns());
    root_self
        .iter()
        .zip(&root_dur)
        .map(|(gap, dur)| 100.0 * gap / dur.max(f64::MIN_POSITIVE))
        .collect()
}

/// One JSON object per span, one per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"op\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) > a [10,60) > b [20,30); op > c [70,90)
        let spans = [
            span("op", 0, 100, None, 0),
            span("a", 10, 60, Some(0), 0),
            span("b", 20, 30, Some(1), 0),
            span("c", 70, 90, Some(0), 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Children [10,50) and [30,70) cover [10,70) = 60 of 100; a
        // third child [40,45) inside both adds nothing; a fourth
        // overruns the parent's end and is clipped.
        let spans = [
            span("op", 0, 100, None, 0),
            span("x", 10, 50, Some(0), 0),
            span("y", 30, 70, Some(0), 0),
            span("z", 40, 45, Some(0), 0),
            span("w", 95, 120, Some(0), 0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 5);
    }

    #[test]
    fn per_op_aggregates_group_by_op_and_name() {
        let spans = [
            span("op", 0, 1_000_000, None, 0),
            span("a", 0, 400_000, Some(0), 0),
            span("a", 500_000, 700_000, Some(0), 0),
            span("op", 2_000_000, 4_000_000, None, 1),
            span("a", 2_000_000, 4_000_000, Some(3), 1),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ms_per_op(&spans, &self_ns, "a"), vec![0.6, 2.0]);
        assert_eq!(self_ms_per_op(&spans, &self_ns, "op"), vec![0.4, 0.0]);
        let gap = attribution_gap_pct_per_op(&spans, &self_ns);
        assert!((gap[0] - 40.0).abs() < 1e-9 && gap[1] == 0.0, "{gap:?}");
    }

    #[test]
    fn tracer_records_parents_and_is_inert_when_disabled() {
        let mut tr = Tracer::new(true);
        tr.begin_op(7);
        let (v, ns) = tr.timed("outer", |tr| tr.span("inner", |_| 42));
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].op),
            ("outer", None, 7)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(ns >= spans[0].duration_ns());
        assert_eq!(to_jsonl(spans).lines().count(), 2);

        let mut off = Tracer::new(false);
        let (v, _) = off.timed("outer", |tr| tr.span("inner", |_| 1));
        assert_eq!(v, 1);
        assert!(off.spans().is_empty());
    }
}
