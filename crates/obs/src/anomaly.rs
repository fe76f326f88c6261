//! Streaming anomaly detection over superstep telemetry.
//!
//! The adaptive controller reacts to drift only at segment boundaries
//! and only once the mean error trips a threshold; this module flags
//! individual stragglers *online*, step by step, before that happens.
//! Two per-processor statistics are tracked with Welford running
//! moments and tested as z-scores against each processor's own
//! trailing distribution:
//!
//! * **barrier skew** — how far behind (or ahead of) the step's mean
//!   finish time the processor arrived at the barrier;
//! * **duration drift** — the processor's own start→finish interval.
//!
//! Everything is computed from virtual times in a fixed order, so the
//! anomaly stream is bit-identical across the simulator and the
//! threaded runtime. The detector's state is allocated once, for a
//! known processor count, so the [`crate::FlightRecorder`] runs it on
//! the probe hot path without touching the allocator.

use crate::probe::{ObsEvent, StepRecord};
use hbsp_core::ProcId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Stable name of the barrier-arrival-skew statistic.
pub const METRIC_BARRIER_SKEW: &str = "barrier_skew";
/// Stable name of the per-processor step-duration statistic.
pub const METRIC_DURATION_DRIFT: &str = "duration_drift";

/// Detector tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyConfig {
    /// Flag an observation when `|z| > threshold`.
    pub threshold: f64,
    /// Minimum per-processor observations before z-scores are tested
    /// (a variance estimated from two points flags everything).
    pub warmup: usize,
}

impl Default for AnomalyConfig {
    fn default() -> Self {
        AnomalyConfig {
            threshold: 3.0,
            warmup: 8,
        }
    }
}

/// One Welford update: fold observation `x` into `(mean, m2)` given
/// the *new* count `n` (1-based). Returns the updated moments.
pub fn welford_update(mean: f64, m2: f64, n: u64, x: f64) -> (f64, f64) {
    let delta = x - mean;
    let mean2 = mean + delta / n as f64;
    (mean2, m2 + delta * (x - mean2))
}

/// The z-score of `x` against trailing moments `(mean, m2)` over `n`
/// observations; `None` while the sample is too small or degenerate.
pub fn zscore(mean: f64, m2: f64, n: u64, x: f64) -> Option<f64> {
    if n < 2 {
        return None;
    }
    let var = m2 / (n - 1) as f64;
    if var <= 1e-18 {
        return None;
    }
    Some((x - mean) / var.sqrt())
}

/// Streaming detector over [`StepRecord`]s for machines of up to
/// `procs` processors. Its state is a fixed arena of atomic cells
/// (`f64` bits), so a probe runs it behind `&self` without a lock or an
/// allocation; the engines serialize steps, so there is one writer and
/// plain `Relaxed` load/store suffices — no CAS.
#[derive(Debug)]
pub struct AnomalyDetector {
    cfg: AnomalyConfig,
    procs: usize,
    /// Welford moments `[skew_mean | skew_m2 | dur_mean | dur_m2]`,
    /// each `procs` wide.
    moments: Box<[AtomicU64]>,
    /// Steps observed so far (shared across processors — every
    /// processor appears in every step).
    n: AtomicU64,
}

impl AnomalyDetector {
    /// Detector with the given knobs, sized for `procs` processors.
    pub fn new(cfg: AnomalyConfig, procs: usize) -> AnomalyDetector {
        AnomalyDetector {
            cfg,
            procs,
            moments: (0..4 * procs).map(|_| AtomicU64::new(0)).collect(),
            n: AtomicU64::new(0),
        }
    }

    /// Steps observed so far.
    pub fn observed(&self) -> u64 {
        self.n.load(Ordering::Relaxed)
    }

    /// Fold one step in, handing each outlier it flags to `flag` as an
    /// [`ObsEvent::Anomaly`] (none in the common case). Observations
    /// are tested against the moments *before* this step is folded in,
    /// then the moments are updated. A step of more processors than the
    /// detector was sized for is ignored.
    pub fn observe(&self, r: &StepRecord<'_>, mut flag: impl FnMut(ObsEvent<'static>)) {
        let (p, procs) = (r.finish.len(), self.procs);
        if p == 0 || p > procs {
            return;
        }
        let cell = |i: usize| &self.moments[i];
        let n0 = self.observed();
        let mean_finish = r.finish.iter().sum::<f64>() / p as f64;
        let tested = n0 >= self.cfg.warmup as u64;
        for i in 0..p {
            let obs = [
                (METRIC_BARRIER_SKEW, 0, r.finish[i] - mean_finish),
                (METRIC_DURATION_DRIFT, 2 * procs, r.finish[i] - r.starts[i]),
            ];
            for (metric, base, x) in obs {
                let (mean_at, m2_at) = (cell(base + i), cell(base + procs + i));
                let mean = f64::from_bits(mean_at.load(Ordering::Relaxed));
                let m2 = f64::from_bits(m2_at.load(Ordering::Relaxed));
                let flagged = |z: &f64| tested && z.abs() > self.cfg.threshold;
                if let Some(zscore) = zscore(mean, m2, n0, x).filter(flagged) {
                    flag(ObsEvent::Anomaly {
                        step: r.step,
                        pid: ProcId(i as u32),
                        metric,
                        zscore,
                        value: x,
                        mean,
                    });
                }
                let (m, s) = welford_update(mean, m2, n0 + 1, x);
                mean_at.store(m.to_bits(), Ordering::Relaxed);
                m2_at.store(s.to_bits(), Ordering::Relaxed);
            }
        }
        self.n.store(n0 + 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_step(p: usize, t0: f64, dur: f64) -> (Vec<f64>, Vec<f64>) {
        (vec![t0; p], vec![t0 + dur; p])
    }

    fn observe(
        det: &AnomalyDetector,
        step: usize,
        starts: &[f64],
        finish: &[f64],
    ) -> Vec<ObsEvent<'static>> {
        let zeros_u = vec![0u64; starts.len()];
        let zeros_f = vec![0.0f64; starts.len()];
        let mut flagged = Vec::new();
        let record = StepRecord {
            step,
            barrier: Some(0),
            starts,
            compute_done: finish,
            send_done: finish,
            finish,
            releases: finish,
            words_by_level: &[0],
            messages_by_level: &[0],
            hrelation: 0.0,
            work: &zeros_f,
            sent_words: &zeros_u,
            wall: None,
        };
        det.observe(&record, |a| flagged.push(a));
        flagged
    }

    #[test]
    fn steady_uniform_steps_flag_nothing() {
        let det = AnomalyDetector::new(AnomalyConfig::default(), 4);
        for s in 0..50 {
            let (starts, finish) = uniform_step(4, s as f64 * 10.0, 10.0);
            assert!(observe(&det, s, &starts, &finish).is_empty(), "step {s}");
        }
        assert_eq!(det.observed(), 50);
    }

    #[test]
    fn a_sudden_straggler_is_flagged_on_both_statistics() {
        let cfg = AnomalyConfig {
            threshold: 3.0,
            warmup: 4,
        };
        let det = AnomalyDetector::new(cfg, 4);
        // Mild per-processor jitter establishes a non-degenerate
        // baseline; then P2 blows up by 50x.
        for s in 0..20 {
            let t0 = s as f64 * 20.0;
            let starts = vec![t0; 4];
            let jitter = |i: usize| 10.0 + 0.1 * ((s + i) % 3) as f64;
            let finish: Vec<f64> = (0..4).map(|i| t0 + jitter(i)).collect();
            assert!(observe(&det, s, &starts, &finish).is_empty());
        }
        let t0 = 400.0;
        let starts = vec![t0; 4];
        let mut finish: Vec<f64> = (0..4).map(|i| t0 + 10.0 + 0.1 * (i % 3) as f64).collect();
        finish[2] = t0 + 500.0;
        let flagged = observe(&det, 20, &starts, &finish);
        let mut on_p2 = Vec::new();
        for a in &flagged {
            let ObsEvent::Anomaly {
                pid,
                metric,
                zscore,
                value,
                mean,
                ..
            } = *a
            else {
                panic!("the detector flags anomalies only: {a:?}")
            };
            if pid == ProcId(2) {
                assert!(zscore > 3.0 && value > mean, "{a:?}");
                on_p2.push(metric);
            }
        }
        assert_eq!(
            on_p2,
            [METRIC_BARRIER_SKEW, METRIC_DURATION_DRIFT],
            "{flagged:?}"
        );
    }

    #[test]
    fn warmup_suppresses_early_flags() {
        let cfg = AnomalyConfig {
            threshold: 1.0,
            warmup: 10,
        };
        let det = AnomalyDetector::new(cfg, 2);
        // Wild swings inside the warmup window: nothing flagged.
        for s in 0..10 {
            let t0 = s as f64 * 100.0;
            let starts = vec![t0; 2];
            let finish = vec![t0 + (s as f64 + 1.0) * 7.0, t0 + 1.0];
            assert!(observe(&det, s, &starts, &finish).is_empty(), "step {s}");
        }
    }

    #[test]
    fn welford_matches_two_pass_moments() {
        let xs = [3.0, 1.5, 4.25, -2.0, 0.5, 9.0];
        let (mut mean, mut m2) = (0.0, 0.0);
        for (i, &x) in xs.iter().enumerate() {
            let (m, s) = welford_update(mean, m2, (i + 1) as u64, x);
            mean = m;
            m2 = s;
        }
        let true_mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let true_m2 = xs.iter().map(|x| (x - true_mean).powi(2)).sum::<f64>();
        assert!((mean - true_mean).abs() < 1e-12);
        assert!((m2 - true_m2).abs() < 1e-9);
        assert!(zscore(mean, m2, xs.len() as u64, 100.0).unwrap() > 3.0);
        assert!(zscore(0.0, 0.0, 1, 1.0).is_none(), "n too small");
        assert!(zscore(5.0, 0.0, 10, 5.0).is_none(), "degenerate variance");
    }
}
