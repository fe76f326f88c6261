//! Cost-model drift: fold observed supersteps against the predictions
//! for the same schedule and report per-step and aggregate error.
//!
//! The paper validates its model by comparing measured and predicted
//! times (§5); this module is that comparison as a first-class report.
//! Pair each executed step's [`StepTrace`] with the
//! [`SuperstepCost`] the cost model assigned to the *same* schedule
//! step, and the difference is model drift — non-zero whenever the
//! machine file's `g`/`L`/`r` disagree with what the engine (or real
//! hardware) actually exhibits.

use crate::record::StepTrace;
use hbsp_core::SuperstepCost;
use std::fmt::Write as _;

/// One executed superstep against its prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRow {
    /// Superstep index.
    pub step: usize,
    /// Predicted cost decomposition for this step.
    pub predicted: SuperstepCost,
    /// Observed step duration (`max release − min start`).
    pub observed_t: f64,
    /// Observed h-relation.
    pub observed_h: f64,
    /// Observed `w` (largest per-processor compute interval).
    pub observed_w: f64,
}

impl DriftRow {
    /// Signed absolute error `observed − predicted`.
    pub fn error(&self) -> f64 {
        self.observed_t - self.predicted.total()
    }

    /// Signed relative error; `NaN` when the prediction is zero.
    pub fn rel_error(&self) -> f64 {
        self.error() / self.predicted.total()
    }
}

/// A full drift report over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Per-step rows in execution order.
    pub rows: Vec<DriftRow>,
}

impl DriftReport {
    /// Pair observed steps with their predictions. The slices must
    /// describe the same schedule, step for step.
    pub fn new(observed: &[StepTrace], predicted: &[SuperstepCost]) -> Result<DriftReport, String> {
        if observed.len() != predicted.len() {
            return Err(format!(
                "observed {} steps but the schedule predicts {} — not the same program",
                observed.len(),
                predicted.len()
            ));
        }
        let rows = observed
            .iter()
            .zip(predicted)
            .map(|(st, cost)| DriftRow {
                step: st.step,
                predicted: *cost,
                observed_t: st.duration(),
                observed_h: st.hrelation,
                observed_w: st.observed_work_time(),
            })
            .collect();
        Ok(DriftReport { rows })
    }

    /// Total predicted time.
    pub fn predicted_total(&self) -> f64 {
        self.rows.iter().map(|r| r.predicted.total()).sum()
    }

    /// Total observed time.
    pub fn observed_total(&self) -> f64 {
        self.rows.iter().map(|r| r.observed_t).sum()
    }

    /// Signed relative error of the aggregate totals; 0 for an empty
    /// report.
    pub fn aggregate_rel_error(&self) -> f64 {
        let p = self.predicted_total();
        if p == 0.0 {
            0.0
        } else {
            (self.observed_total() - p) / p
        }
    }

    /// Mean absolute per-step relative error over steps with a non-zero
    /// prediction.
    pub fn mean_abs_rel_error(&self) -> f64 {
        let (sum, n) = (self.rows.iter())
            .filter(|r| r.predicted.total() > 0.0)
            .fold((0.0, 0), |(sum, n), r| (sum + r.rel_error().abs(), n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Largest absolute per-step relative error (0 when undefined).
    pub fn max_abs_rel_error(&self) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.predicted.total() > 0.0)
            .map(|r| r.rel_error().abs())
            .fold(0.0f64, f64::max)
    }

    /// Render the per-step table plus the aggregate line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>4} {:>6} {:>12} {:>12} {:>10} {:>10} {:>8}",
            "step", "level", "predicted T", "observed T", "pred h", "obs h", "error"
        );
        for r in &self.rows {
            let err = if r.predicted.total() > 0.0 {
                format!("{:+.1}%", 100.0 * r.rel_error())
            } else {
                "-".to_string()
            };
            let _ = writeln!(
                out,
                "{:>4} {:>6} {:>12.1} {:>12.1} {:>10.1} {:>10.1} {:>8}",
                r.step,
                r.predicted.level,
                r.predicted.total(),
                r.observed_t,
                r.predicted.h,
                r.observed_h,
                err
            );
        }
        let _ = writeln!(
            out,
            "aggregate: predicted {:.1}, observed {:.1} ({:+.1}%); per-step mean |err| {:.1}%, max |err| {:.1}%",
            self.predicted_total(),
            self.observed_total(),
            100.0 * self.aggregate_rel_error(),
            100.0 * self.mean_abs_rel_error(),
            100.0 * self.max_abs_rel_error(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbsp_core::Level;

    fn trace(step: usize, dur: f64, h: f64) -> StepTrace {
        StepTrace::from_record(&crate::probe::StepRecord {
            step,
            barrier: Some(1),
            starts: &[0.0],
            compute_done: &[0.0],
            send_done: &[0.0],
            finish: &[dur],
            releases: &[dur],
            words_by_level: &[],
            messages_by_level: &[],
            hrelation: h,
            work: &[0.0],
            sent_words: &[0],
            wall: None,
        })
    }

    fn cost(level: Level, w: f64, h: f64, comm: f64, sync: f64) -> SuperstepCost {
        SuperstepCost {
            level,
            w,
            h,
            comm,
            sync,
        }
    }

    #[test]
    fn exact_prediction_has_zero_drift() {
        let observed = vec![trace(0, 110.0, 100.0), trace(1, 55.0, 50.0)];
        let predicted = vec![
            cost(1, 0.0, 100.0, 100.0, 10.0),
            cost(1, 0.0, 50.0, 50.0, 5.0),
        ];
        let rep = DriftReport::new(&observed, &predicted).unwrap();
        assert_eq!(rep.predicted_total(), 165.0);
        assert_eq!(rep.observed_total(), 165.0);
        assert_eq!(rep.aggregate_rel_error(), 0.0);
        assert_eq!(rep.mean_abs_rel_error(), 0.0);
    }

    #[test]
    fn drift_is_reported_per_step_and_aggregate() {
        let observed = vec![trace(0, 120.0, 100.0)];
        let predicted = vec![cost(2, 0.0, 100.0, 100.0, 0.0)];
        let rep = DriftReport::new(&observed, &predicted).unwrap();
        assert!((rep.rows[0].rel_error() - 0.2).abs() < 1e-12);
        assert!((rep.aggregate_rel_error() - 0.2).abs() < 1e-12);
        assert!((rep.max_abs_rel_error() - 0.2).abs() < 1e-12);
        let table = rep.render();
        assert!(table.contains("predicted T"), "{table}");
        assert!(table.contains("+20.0%"), "{table}");
        assert!(table.contains("aggregate:"), "{table}");
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let err = DriftReport::new(&[trace(0, 1.0, 0.0)], &[]).unwrap_err();
        assert!(err.contains("not the same program"), "{err}");
    }

    #[test]
    fn zero_prediction_rows_are_excluded_from_relative_stats() {
        let observed = vec![trace(0, 0.0, 0.0)];
        let predicted = vec![cost(1, 0.0, 0.0, 0.0, 0.0)];
        let rep = DriftReport::new(&observed, &predicted).unwrap();
        assert_eq!(rep.mean_abs_rel_error(), 0.0);
        assert!(rep.render().contains(" -"), "dash for undefined error");
    }
}
