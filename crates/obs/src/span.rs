//! Activity spans — the atom of both engines' timelines.
//!
//! [`Span`] and [`SpanKind`] are the schema shared by the virtual-time
//! `Simulator` and the wall-clock `ThreadedRuntime`: a processor's
//! superstep decomposes into compute → send → unpack → barrier-wait
//! intervals. `hbsp-sim` re-exports these types so existing
//! `ProcTimeline` users are unaffected.

use std::sync::Arc;

/// What a processor was doing during a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Charged local computation.
    Compute,
    /// Packing and posting outgoing messages.
    Send,
    /// Unpacking incoming messages (includes waiting for arrivals).
    Unpack,
    /// Waiting at the closing barrier.
    BarrierWait,
}

impl SpanKind {
    /// One-character glyph for the Gantt rendering.
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Compute => 'C',
            SpanKind::Send => 'S',
            SpanKind::Unpack => 'U',
            SpanKind::BarrierWait => '.',
        }
    }

    /// Stable lowercase name used by the exporters (`compute`, `send`,
    /// `unpack`, `barrier_wait`). Part of the telemetry contract.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::Send => "send",
            SpanKind::Unpack => "unpack",
            SpanKind::BarrierWait => "barrier_wait",
        }
    }
}

/// A half-open activity interval `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Activity.
    pub kind: SpanKind,
    /// Start time.
    pub start: f64,
    /// End time.
    pub end: f64,
}

impl Span {
    /// Span length.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// What level of the execution hierarchy a [`CausalSpan`] describes.
///
/// The causal tree nests scheduler batch → job → adaptive segment →
/// superstep; any prefix of that chain may be absent (a plain
/// [`crate::Recorder`] run has only superstep spans, an adaptive run
/// adds segments, a scheduled run adds batches and jobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CausalKind {
    /// One scheduler batch (a merged shared-barrier superstep group).
    Batch,
    /// One job within a batch.
    Job,
    /// One adaptive controller segment (a re-planning window).
    Segment,
    /// One executed superstep.
    Superstep,
}

impl CausalKind {
    /// Stable lowercase name used by the exporters. Part of the
    /// telemetry contract.
    pub fn name(self) -> &'static str {
        match self {
            CausalKind::Batch => "batch",
            CausalKind::Job => "job",
            CausalKind::Segment => "segment",
            CausalKind::Superstep => "superstep",
        }
    }

    /// Parse a [`CausalKind::name`] back.
    pub fn parse(s: &str) -> Option<CausalKind> {
        Some(match s {
            "batch" => CausalKind::Batch,
            "job" => CausalKind::Job,
            "segment" => CausalKind::Segment,
            "superstep" => CausalKind::Superstep,
            _ => return None,
        })
    }
}

/// One node of the causal span tree: an interval of virtual time with
/// an optional parent link to the enclosing interval.
#[derive(Debug, Clone, PartialEq)]
pub struct CausalSpan {
    /// Dense id: index of this span in its tree's span list.
    pub id: usize,
    /// Parent span id; `None` for roots. Always `< id`, so a span
    /// list in id order is topologically sorted.
    pub parent: Option<usize>,
    /// Hierarchy level.
    pub kind: CausalKind,
    /// Human-readable label (job name, `segment 3`, `step 17`, ...).
    pub label: Arc<str>,
    /// Start, in virtual time.
    pub start: f64,
    /// End, in virtual time.
    pub end: f64,
}

/// Builder for a well-formed causal span list: ids are assigned
/// densely and parents must already exist, so the output always
/// passes [`check_causal_spans`].
#[derive(Debug, Clone, Default)]
pub struct CausalTree {
    spans: Vec<CausalSpan>,
    /// `step {i}` at `i`, shared by every superstep span of index `i`.
    step_labels: Vec<Arc<str>>,
}

impl CausalTree {
    /// Empty tree.
    pub fn new() -> CausalTree {
        CausalTree::default()
    }

    /// Append a span and return its id. Panics if `parent` does not
    /// name an already-pushed span.
    pub fn push(
        &mut self,
        kind: CausalKind,
        label: impl Into<Arc<str>>,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        if let Some(p) = parent {
            assert!(p < self.spans.len(), "parent {p} not yet pushed");
        }
        let id = self.spans.len();
        self.spans.push(CausalSpan {
            id,
            parent,
            kind,
            label: label.into(),
            start,
            end,
        });
        id
    }

    /// Append one [`CausalKind::Superstep`] span per step in `steps`
    /// (skipping empty records), as children of `parent`, with every
    /// time shifted by `offset` — the cumulative clock of the run,
    /// since each engine execution restarts its virtual clock at zero.
    /// A step's span is `[min start, max release]` across processors.
    pub fn push_steps(
        &mut self,
        parent: Option<usize>,
        steps: &[crate::record::StepTrace],
        offset: f64,
    ) {
        for st in steps {
            if st.procs() == 0 {
                continue;
            }
            let start = st.starts().iter().copied().fold(f64::INFINITY, f64::min);
            let end = st
                .releases()
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            for i in self.step_labels.len()..=st.step {
                self.step_labels.push(format!("step {i}").into());
            }
            self.push(
                CausalKind::Superstep,
                self.step_labels[st.step].clone(),
                parent,
                offset + start,
                offset + end,
            );
        }
    }

    /// The spans pushed so far, in id order.
    pub fn spans(&self) -> &[CausalSpan] {
        &self.spans
    }

    /// Consume the tree into its span list.
    pub fn into_spans(self) -> Vec<CausalSpan> {
        self.spans
    }
}

/// The depth of span `id` in its tree (roots are depth 0). Assumes
/// `spans` passed [`check_causal_spans`].
pub fn causal_depth(spans: &[CausalSpan], id: usize) -> usize {
    let mut depth = 0;
    let mut cur = id;
    while let Some(p) = spans[cur].parent {
        depth += 1;
        cur = p;
    }
    depth
}

/// Validate a causal span list:
///
/// 1. ids are dense (`spans[i].id == i`);
/// 2. every parent link points to an earlier span (no cycles);
/// 3. every span has `end ≥ start`;
/// 4. a child's interval lies inside its parent's (small tolerance
///    for accumulated f64 rounding).
pub fn check_causal_spans(spans: &[CausalSpan]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id != i {
            return Err(format!("span {i} carries id {} (ids must be dense)", s.id));
        }
        if s.end < s.start {
            return Err(format!(
                "span {i} ({}, {:?}): end {} before start {}",
                s.label, s.kind, s.end, s.start
            ));
        }
        if let Some(p) = s.parent {
            if p >= i {
                return Err(format!("span {i}: parent {p} is not an earlier span"));
            }
            let parent = &spans[p];
            let tol = 1e-9 * (1.0 + parent.end.abs());
            if s.start < parent.start - tol || s.end > parent.end + tol {
                return Err(format!(
                    "span {i} ({}) [{}, {}] escapes parent {p} ({}) [{}, {}]",
                    s.label, s.start, s.end, parent.label, parent.start, parent.end
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_and_names_are_distinct() {
        let kinds = [
            SpanKind::Compute,
            SpanKind::Send,
            SpanKind::Unpack,
            SpanKind::BarrierWait,
        ];
        for (i, a) in kinds.iter().enumerate() {
            for b in kinds.iter().skip(i + 1) {
                assert_ne!(a.glyph(), b.glyph());
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn duration_is_end_minus_start() {
        let s = Span {
            kind: SpanKind::Send,
            start: 2.5,
            end: 7.0,
        };
        assert_eq!(s.duration(), 4.5);
    }

    #[test]
    fn causal_tree_builds_valid_nestings() {
        let mut t = CausalTree::new();
        let batch = t.push(CausalKind::Batch, "batch 0", None, 0.0, 100.0);
        let job = t.push(CausalKind::Job, "gather#1", Some(batch), 0.0, 60.0);
        let step = t.push(CausalKind::Superstep, "step 0", Some(job), 0.0, 30.0);
        assert_eq!((batch, job, step), (0, 1, 2));
        check_causal_spans(t.spans()).unwrap();
        assert_eq!(causal_depth(t.spans(), step), 2);
        assert_eq!(causal_depth(t.spans(), batch), 0);
    }

    #[test]
    fn causal_checker_rejects_escapes_and_bad_links() {
        let mut t = CausalTree::new();
        let b = t.push(CausalKind::Batch, "b", None, 0.0, 10.0);
        t.push(CausalKind::Job, "j", Some(b), 5.0, 15.0); // escapes
        let err = check_causal_spans(t.spans()).unwrap_err();
        assert!(err.contains("escapes"), "{err}");

        let bad = vec![CausalSpan {
            id: 0,
            parent: Some(0),
            kind: CausalKind::Job,
            label: "self".into(),
            start: 0.0,
            end: 1.0,
        }];
        assert!(check_causal_spans(&bad).unwrap_err().contains("earlier"));
    }

    #[test]
    fn causal_kind_names_round_trip() {
        for k in [
            CausalKind::Batch,
            CausalKind::Job,
            CausalKind::Segment,
            CausalKind::Superstep,
        ] {
            assert_eq!(CausalKind::parse(k.name()), Some(k));
        }
        assert_eq!(CausalKind::parse("nope"), None);
    }
}
