//! Execution timelines: what every processor was doing when.
//!
//! A recording probe ([`hbsp_obs::Recorder`], attached with
//! `Simulator::probe` or `Executor::probe` on either engine) keeps one
//! [`StepTrace`] per superstep; [`ProcTimeline::from_steps`] views those
//! as per-processor activity spans — compute, send (pack+post), unpack,
//! and barrier wait — which is the raw material for diagnosing
//! imbalance ("faster machines typically sit idle waiting for slower
//! nodes", §4.1). [`TraceSummary`] totals them and [`ascii_gantt`]
//! renders them as a terminal Gantt chart.

use hbsp_core::ProcId;
use hbsp_obs::StepTrace;
use std::fmt::Write as _;

// The span schema lives in `hbsp-obs` (both engines and the exporters
// share it); re-exported here so `hbsp_sim::{Span, SpanKind}` keeps
// working.
pub use hbsp_obs::{Span, SpanKind};

/// One processor's activity over the whole run.
#[derive(Debug, Clone)]
pub struct ProcTimeline {
    /// The processor.
    pub pid: ProcId,
    /// Non-overlapping spans in time order (zero-length spans elided).
    pub spans: Vec<Span>,
}

impl ProcTimeline {
    /// One timeline per processor over `steps` (what a recorder's
    /// `steps()` or `steps_since(cursor)` returned): each step's
    /// [`StepTrace::spans`], in order, without the zero-length ones.
    /// Both engines record the same virtual times, so the same program
    /// gives the same timelines on either.
    pub fn from_steps(steps: &[StepTrace]) -> Vec<ProcTimeline> {
        let procs = steps.iter().map(StepTrace::procs).max().unwrap_or(0);
        (0..procs)
            .map(|i| ProcTimeline {
                pid: ProcId(i as u32),
                spans: steps
                    .iter()
                    .filter(|st| i < st.procs())
                    .flat_map(|st| st.spans(i))
                    .filter(|span| span.end > span.start)
                    .collect(),
            })
            .collect()
    }

    /// Total time spent in `kind`.
    pub fn time_in(&self, kind: SpanKind) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::duration)
            .sum()
    }

    /// Fraction of `[0, horizon)` spent waiting at barriers — the
    /// "sitting idle" measure.
    pub fn idle_fraction(&self, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        self.time_in(SpanKind::BarrierWait) / horizon
    }
}

/// Aggregate observed activity across all processors — the measured
/// counterpart of the cost model's §3.4 penalty decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSummary {
    /// Total processor-time computing.
    pub compute: f64,
    /// Total processor-time packing/posting sends.
    pub send: f64,
    /// Total processor-time unpacking (incl. waiting for arrivals).
    pub unpack: f64,
    /// Total processor-time waiting at barriers.
    pub barrier_wait: f64,
}

impl TraceSummary {
    /// Summarize a set of timelines.
    pub fn of(timelines: &[ProcTimeline]) -> TraceSummary {
        let total = |kind| timelines.iter().map(|t| t.time_in(kind)).sum();
        TraceSummary {
            compute: total(SpanKind::Compute),
            send: total(SpanKind::Send),
            unpack: total(SpanKind::Unpack),
            barrier_wait: total(SpanKind::BarrierWait),
        }
    }

    /// All accounted processor-time.
    pub fn total(&self) -> f64 {
        self.compute + self.send + self.unpack + self.barrier_wait
    }

    /// Fraction of processor-time lost to barrier waits — the observed
    /// heterogeneity penalty.
    pub fn wait_fraction(&self) -> f64 {
        if self.total() <= 0.0 {
            0.0
        } else {
            self.barrier_wait / self.total()
        }
    }
}

/// Render timelines as an ASCII Gantt chart of `width` columns.
///
/// Each row is a processor; each cell shows the dominant activity in
/// that time bucket (`C`ompute, `S`end, `U`npack, `.` barrier wait,
/// space = before start/after finish).
pub fn ascii_gantt(timelines: &[ProcTimeline], width: usize) -> String {
    assert!(width > 0, "zero-width chart");
    let horizon = timelines
        .iter()
        .flat_map(|t| t.spans.iter().map(|s| s.end))
        .fold(0.0f64, f64::max);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "0 {:>width$.0}",
        horizon,
        width = width.saturating_sub(2)
    );
    for tl in timelines {
        let mut row = vec![' '; width];
        for span in &tl.spans {
            if horizon <= 0.0 {
                break;
            }
            let a = ((span.start / horizon) * width as f64).floor() as usize;
            let b = ((span.end / horizon) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                // Later spans overwrite earlier ones within a bucket;
                // spans are time-ordered so the last activity wins.
                *cell = span.kind.glyph();
            }
        }
        let _ = writeln!(
            out,
            "{:>4} |{}|",
            tl.pid.to_string(),
            row.iter().collect::<String>()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl(pid: u32, spans: Vec<Span>) -> ProcTimeline {
        ProcTimeline {
            pid: ProcId(pid),
            spans,
        }
    }

    #[test]
    fn time_accounting() {
        let t = tl(
            0,
            vec![
                Span {
                    kind: SpanKind::Compute,
                    start: 0.0,
                    end: 10.0,
                },
                Span {
                    kind: SpanKind::Send,
                    start: 10.0,
                    end: 15.0,
                },
                Span {
                    kind: SpanKind::BarrierWait,
                    start: 15.0,
                    end: 40.0,
                },
                Span {
                    kind: SpanKind::Compute,
                    start: 40.0,
                    end: 45.0,
                },
            ],
        );
        assert_eq!(t.time_in(SpanKind::Compute), 15.0);
        assert_eq!(t.time_in(SpanKind::Send), 5.0);
        assert_eq!(t.idle_fraction(50.0), 0.5);
        assert_eq!(t.idle_fraction(0.0), 0.0);
    }

    #[test]
    fn gantt_renders_rows() {
        let tls = vec![
            tl(
                0,
                vec![Span {
                    kind: SpanKind::Compute,
                    start: 0.0,
                    end: 50.0,
                }],
            ),
            tl(
                1,
                vec![
                    Span {
                        kind: SpanKind::Compute,
                        start: 0.0,
                        end: 100.0,
                    },
                    Span {
                        kind: SpanKind::BarrierWait,
                        start: 100.0,
                        end: 200.0,
                    },
                ],
            ),
        ];
        let chart = ascii_gantt(&tls, 20);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 3, "header + two rows");
        assert!(lines[1].contains('C'));
        assert!(lines[2].contains('.'), "P1 waits at the barrier");
        // P0's row is blank after its finish at t=50 (quarter of 200).
        let p0_row = lines[1];
        assert!(
            p0_row.contains("  "),
            "P0's row has trailing idle space: {p0_row}"
        );
    }

    #[test]
    fn summary_totals_activities() {
        let tls = vec![
            tl(
                0,
                vec![
                    Span {
                        kind: SpanKind::Compute,
                        start: 0.0,
                        end: 10.0,
                    },
                    Span {
                        kind: SpanKind::BarrierWait,
                        start: 10.0,
                        end: 30.0,
                    },
                ],
            ),
            tl(
                1,
                vec![Span {
                    kind: SpanKind::Send,
                    start: 0.0,
                    end: 30.0,
                }],
            ),
        ];
        let s = TraceSummary::of(&tls);
        assert_eq!(s.compute, 10.0);
        assert_eq!(s.send, 30.0);
        assert_eq!(s.barrier_wait, 20.0);
        assert_eq!(s.total(), 60.0);
        assert!((s.wait_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    fn step(index: usize, barrier: Option<u32>, t0: f64) -> StepTrace {
        StepTrace::from_record(&hbsp_obs::StepRecord {
            step: index,
            barrier,
            starts: &[t0, t0],
            compute_done: &[t0 + 5.0, t0 + 2.0],
            send_done: &[t0 + 5.0, t0 + 3.0], // P0 sends nothing
            finish: &[t0 + 9.0, t0 + 3.5],
            releases: &[t0 + 9.0, t0 + 9.0], // P0 is last: it waits for nobody
            words_by_level: &[0, 4],
            messages_by_level: &[0, 1],
            hrelation: 4.0,
            work: &[5.0, 2.0],
            sent_words: &[0, 4],
            wall: None,
        })
    }

    #[test]
    fn step_spans_elide_empty() {
        let tls = ProcTimeline::from_steps(&[step(0, Some(1), 0.0)]);
        let kinds = |tl: &ProcTimeline| tl.spans.iter().map(|s| s.kind).collect::<Vec<_>>();
        // No send span for P0, and no barrier wait of length zero
        // (which `StepTrace::spans` itself keeps).
        assert_eq!(kinds(&tls[0]), [SpanKind::Compute, SpanKind::Unpack]);
        assert_eq!(
            kinds(&tls[1]),
            [
                SpanKind::Compute,
                SpanKind::Send,
                SpanKind::Unpack,
                SpanKind::BarrierWait
            ]
        );
    }

    #[test]
    fn timelines_concatenate_steps_per_proc() {
        let tls = ProcTimeline::from_steps(&[step(0, Some(1), 0.0), step(1, Some(1), 9.0)]);
        assert_eq!(tls.len(), 2);
        assert_eq!(tls[1].pid, ProcId(1));
        assert_eq!(tls[1].spans.len(), 8, "two steps × four spans for P1");
        assert_eq!(tls[1].spans[0].start, 0.0);
        assert_eq!(tls[1].spans.last().unwrap().end, 18.0);
    }
}
