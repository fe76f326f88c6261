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
//! threaded runtime. The detector allocates only when the machine
//! grows ([`AnomalyDetector::arm`] preallocates for a known processor
//! count), so the [`crate::FlightRecorder`] can run it on the probe
//! hot path without touching the allocator.

use crate::probe::StepRecord;
use hbsp_core::ProcId;

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

/// One flagged outlier.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Superstep the outlier was observed at.
    pub step: usize,
    /// Flagged processor.
    pub pid: ProcId,
    /// [`METRIC_BARRIER_SKEW`] or [`METRIC_DURATION_DRIFT`].
    pub metric: &'static str,
    /// Signed z-score of the observation.
    pub zscore: f64,
    /// The observed value.
    pub value: f64,
    /// The trailing mean it was compared against.
    pub mean: f64,
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

/// Per-processor trailing moments for one statistic.
#[derive(Debug, Clone, Default)]
struct Moments {
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl Moments {
    fn grow(&mut self, p: usize) {
        if self.mean.len() < p {
            self.mean.resize(p, 0.0);
            self.m2.resize(p, 0.0);
        }
    }

    fn fold(&mut self, i: usize, n: u64, x: f64) {
        let (m, m2) = welford_update(self.mean[i], self.m2[i], n, x);
        self.mean[i] = m;
        self.m2[i] = m2;
    }
}

/// Streaming detector over [`StepRecord`]s. Feed every step through
/// [`AnomalyDetector::observe`]; flagged outliers are returned as a
/// borrowed slice reusing one internal buffer (no allocation per step
/// once armed for the machine size).
#[derive(Debug, Clone, Default)]
pub struct AnomalyDetector {
    cfg: AnomalyConfig,
    /// Steps observed so far (shared across processors — every
    /// processor appears in every step).
    n: u64,
    skew: Moments,
    duration: Moments,
    flagged: Vec<Anomaly>,
}

impl AnomalyDetector {
    /// Detector with the given knobs.
    pub fn new(cfg: AnomalyConfig) -> AnomalyDetector {
        AnomalyDetector {
            cfg,
            ..AnomalyDetector::default()
        }
    }

    /// Preallocate state for `procs` processors so the steady-state
    /// path never allocates.
    pub fn arm(&mut self, procs: usize) {
        self.skew.grow(procs);
        self.duration.grow(procs);
        self.flagged.reserve(2 * procs);
    }

    /// Steps observed so far.
    pub fn observed(&self) -> u64 {
        self.n
    }

    /// Fold one step in; returns the outliers it flagged (empty in
    /// the common case). Observations are tested against the moments
    /// *before* this step is folded in, then the moments are updated.
    pub fn observe(&mut self, r: &StepRecord<'_>) -> &[Anomaly] {
        self.flagged.clear();
        let p = r.finish.len();
        if p == 0 {
            return &self.flagged;
        }
        self.skew.grow(p);
        self.duration.grow(p);
        let mean_finish = r.finish.iter().sum::<f64>() / p as f64;
        let tested = self.n >= self.cfg.warmup as u64;
        for i in 0..p {
            let skew = r.finish[i] - mean_finish;
            let dur = r.finish[i] - r.starts[i];
            if tested {
                for (metric, moments, x) in [
                    (METRIC_BARRIER_SKEW, &self.skew, skew),
                    (METRIC_DURATION_DRIFT, &self.duration, dur),
                ] {
                    if let Some(z) = zscore(moments.mean[i], moments.m2[i], self.n, x) {
                        if z.abs() > self.cfg.threshold {
                            self.flagged.push(Anomaly {
                                step: r.step,
                                pid: ProcId(i as u32),
                                metric,
                                zscore: z,
                                value: x,
                                mean: moments.mean[i],
                            });
                        }
                    }
                }
            }
            let n = self.n + 1;
            self.skew.fold(i, n, skew);
            self.duration.fold(i, n, dur);
        }
        self.n += 1;
        &self.flagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_step(p: usize, t0: f64, dur: f64) -> (Vec<f64>, Vec<f64>) {
        (vec![t0; p], vec![t0 + dur; p])
    }

    fn observe(
        det: &mut AnomalyDetector,
        step: usize,
        starts: &[f64],
        finish: &[f64],
    ) -> Vec<Anomaly> {
        let zeros_u = vec![0u64; starts.len()];
        let zeros_f = vec![0.0f64; starts.len()];
        det.observe(&StepRecord {
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
        })
        .to_vec()
    }

    #[test]
    fn steady_uniform_steps_flag_nothing() {
        let mut det = AnomalyDetector::new(AnomalyConfig::default());
        det.arm(4);
        for s in 0..50 {
            let (starts, finish) = uniform_step(4, s as f64 * 10.0, 10.0);
            assert!(
                observe(&mut det, s, &starts, &finish).is_empty(),
                "step {s}"
            );
        }
        assert_eq!(det.observed(), 50);
    }

    #[test]
    fn a_sudden_straggler_is_flagged_on_both_statistics() {
        let mut det = AnomalyDetector::new(AnomalyConfig {
            threshold: 3.0,
            warmup: 4,
        });
        det.arm(4);
        // Mild per-processor jitter establishes a non-degenerate
        // baseline; then P2 blows up by 50x.
        for s in 0..20 {
            let t0 = s as f64 * 20.0;
            let starts = vec![t0; 4];
            let jitter = |i: usize| 10.0 + 0.1 * ((s + i) % 3) as f64;
            let finish: Vec<f64> = (0..4).map(|i| t0 + jitter(i)).collect();
            assert!(observe(&mut det, s, &starts, &finish).is_empty());
        }
        let t0 = 400.0;
        let starts = vec![t0; 4];
        let mut finish: Vec<f64> = (0..4).map(|i| t0 + 10.0 + 0.1 * (i % 3) as f64).collect();
        finish[2] = t0 + 500.0;
        let flagged = observe(&mut det, 20, &starts, &finish);
        assert!(
            flagged
                .iter()
                .any(|a| a.pid == ProcId(2) && a.metric == METRIC_BARRIER_SKEW),
            "{flagged:?}"
        );
        assert!(
            flagged
                .iter()
                .any(|a| a.pid == ProcId(2) && a.metric == METRIC_DURATION_DRIFT),
            "{flagged:?}"
        );
        for a in &flagged {
            if a.pid == ProcId(2) {
                assert!(a.zscore > 3.0, "{a:?}");
                assert!(a.value > a.mean);
            }
        }
    }

    #[test]
    fn warmup_suppresses_early_flags() {
        let mut det = AnomalyDetector::new(AnomalyConfig {
            threshold: 1.0,
            warmup: 10,
        });
        // Wild swings inside the warmup window: nothing flagged.
        for s in 0..10 {
            let t0 = s as f64 * 100.0;
            let starts = vec![t0; 2];
            let finish = vec![t0 + (s as f64 + 1.0) * 7.0, t0 + 1.0];
            assert!(
                observe(&mut det, s, &starts, &finish).is_empty(),
                "step {s}"
            );
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
