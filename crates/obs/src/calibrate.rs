//! Closed-loop back-calibration of machine parameters from observed
//! runs — the §5 BYTEmark idea in reverse.
//!
//! The paper *measures* `r_j` by benchmarking and then predicts; this
//! module closes the loop: given recorded supersteps it recovers the
//! parameters a cost model would have needed to produce the observed
//! times.
//!
//! * `g` and the per-level `L` come from least squares over the step
//!   equation `T_s − w_s = g·h_s + L_{level(s)}` (a drain step
//!   contributes a `g`-only equation);
//! * per-processor speeds come from charged work over observed compute
//!   time, normalized so the fastest is 1;
//! * per-processor `r` comes from observed send time over `ĝ·words`,
//!   normalized so the smallest is 1 (the machine-file convention).
//!
//! The absolute scale of `r̂` depends on the sender-side pack constant
//! (`NetConfig::send_byte_factor`), so its *ranking* is the trustworthy
//! output — exactly how the paper uses BYTEmark.

use crate::record::{EventTrace, StepTrace};
use hbsp_core::Level;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Parameters recovered from an observed run.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// Fitted communication gap `ĝ`.
    pub g: f64,
    /// Fitted per-level synchronization cost `L̂`, for each barrier
    /// level that appeared in the run.
    pub l_by_level: Vec<(Level, f64)>,
    /// Per-processor relative speed (fastest = 1; 0 when the processor
    /// did no observable compute).
    pub speed_by_proc: Vec<f64>,
    /// Per-processor relative `r` (smallest = 1; 0 when the processor
    /// sent no observable words).
    pub r_by_proc: Vec<f64>,
    /// Root-mean-square residual of the `g`/`L` fit, in model time.
    pub residual_rms: f64,
}

impl Calibration {
    /// Fitted `L` for `level`, if that level synchronized in the run.
    pub fn l_at(&self, level: Level) -> Option<f64> {
        self.l_by_level
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, v)| *v)
    }

    /// Processor ranks ordered fastest-communicator first (by fitted
    /// `r`, unobserved processors excluded) — the BYTEmark ranking.
    pub fn r_ranking(&self) -> Vec<usize> {
        let mut ranked: Vec<usize> = (0..self.r_by_proc.len())
            .filter(|&i| self.r_by_proc[i] > 0.0)
            .collect();
        ranked.sort_by(|&a, &b| self.r_by_proc[a].total_cmp(&self.r_by_proc[b]));
        ranked
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "calibrated g = {:.4}  (rms residual {:.3})",
            self.g, self.residual_rms
        );
        for (level, l) in &self.l_by_level {
            let _ = writeln!(out, "calibrated L[level {level}] = {l:.3}");
        }
        for (i, (s, r)) in self.speed_by_proc.iter().zip(&self.r_by_proc).enumerate() {
            let _ = writeln!(out, "P{i}: speed {s:.4}, r {r:.4}");
        }
        out
    }
}

/// Solve `min ‖Ax − y‖₂` via the normal equations (`A` is small: one
/// row per superstep, one column per parameter). Returns `None` when
/// the system is under-determined or numerically singular.
fn least_squares(rows: &[Vec<f64>], y: &[f64]) -> Option<Vec<f64>> {
    let n = rows.first()?.len();
    if rows.len() < n {
        return None;
    }
    // ata = AᵀA (n×n), aty = Aᵀy.
    let mut ata = vec![vec![0.0f64; n]; n];
    let mut aty = vec![0.0f64; n];
    for (row, &yi) in rows.iter().zip(y) {
        for i in 0..n {
            aty[i] += row[i] * yi;
            for j in 0..n {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    // Gaussian elimination with partial pivoting.
    let mut m = ata;
    let mut b = aty;
    for col in 0..n {
        let pivot = (col..n).max_by(|&a, &c| m[a][col].abs().total_cmp(&m[c][col].abs()))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        b.swap(col, pivot);
        let pivot_row = m[col].clone();
        for r in col + 1..n {
            let f = m[r][col] / pivot_row[col];
            for (mc, pc) in m[r][col..n].iter_mut().zip(&pivot_row[col..n]) {
                *mc -= f * pc;
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for col in (0..n).rev() {
        let mut v = b[col];
        for c in col + 1..n {
            v -= m[col][c] * x[c];
        }
        x[col] = v / m[col][col];
    }
    Some(x)
}

/// The `g`/`L` least-squares fit over one set of steps: fitted `ĝ`,
/// per-level `L̂`, and the rms residual.
struct GlFit {
    g: f64,
    l_by_level: Vec<(Level, f64)>,
    residual_rms: f64,
}

fn fit_gl(steps: &[StepTrace]) -> Result<GlFit, String> {
    if steps.is_empty() {
        return Err("no observed steps to calibrate from".to_string());
    }
    let levels: BTreeSet<Level> = steps.iter().filter_map(|s| s.barrier).collect();
    let level_col: Vec<Level> = levels.into_iter().collect();
    let ncols = 1 + level_col.len();

    let mut rows = Vec::with_capacity(steps.len());
    let mut y = Vec::with_capacity(steps.len());
    for st in steps {
        let mut row = vec![0.0f64; ncols];
        row[0] = st.hrelation;
        // `level_col` is sorted and holds every barrier level.
        if let Some(Ok(idx)) = st.barrier.map(|level| level_col.binary_search(&level)) {
            row[1 + idx] = 1.0;
        }
        rows.push(row);
        y.push(st.duration() - st.observed_work_time());
    }
    let x = least_squares(&rows, &y).ok_or_else(|| {
        format!(
            "calibration under-determined: {} steps cannot separate g from {} barrier level(s)",
            steps.len(),
            level_col.len()
        )
    })?;
    let g = x[0];
    let l_by_level: Vec<(Level, f64)> = level_col
        .iter()
        .zip(&x[1..])
        .map(|(&l, &v)| (l, v))
        .collect();

    let residual_rms = {
        let ss: f64 = rows
            .iter()
            .zip(&y)
            .map(|(row, &yi)| {
                let pred: f64 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
                (yi - pred).powi(2)
            })
            .sum();
        (ss / rows.len() as f64).sqrt()
    };
    Ok(GlFit {
        g,
        l_by_level,
        residual_rms,
    })
}

/// Per-processor speed and `r` estimates recovered directly from the
/// telemetry of `steps`, priced against a known (or believed) gap `g`.
///
/// This is the fallback half of calibration: it needs no least-squares
/// fit, so it works even on windows where every step has the same
/// h-relation (a repeated collective) and `g`/`L` cannot be separated.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcEstimates {
    /// Per-processor relative speed (fastest = 1; 0 when the processor
    /// did no observable compute).
    pub speed_by_proc: Vec<f64>,
    /// Per-processor relative `r` (smallest = 1; 0 when the processor
    /// sent no observable words).
    pub r_by_proc: Vec<f64>,
}

/// Estimate per-processor speeds and `r` from observed compute and
/// send intervals, assuming communication gap `g`.
pub fn proc_estimates(steps: &[StepTrace], g: f64) -> ProcEstimates {
    let procs = steps.iter().map(StepTrace::procs).max().unwrap_or(0);
    let mut work_units = vec![0.0f64; procs];
    let mut compute_time = vec![0.0f64; procs];
    let mut send_time = vec![0.0f64; procs];
    let mut sent_words = vec![0u64; procs];
    for st in steps {
        for i in 0..st.procs() {
            work_units[i] += st.work()[i];
            compute_time[i] += st.compute_done()[i] - st.starts()[i];
            send_time[i] += st.send_done()[i] - st.compute_done()[i];
            sent_words[i] += st.sent_words()[i];
        }
    }
    let mut speed_by_proc: Vec<f64> = (0..procs)
        .map(|i| {
            if compute_time[i] > 0.0 && work_units[i] > 0.0 {
                work_units[i] / compute_time[i]
            } else {
                0.0
            }
        })
        .collect();
    let fastest = speed_by_proc.iter().copied().fold(0.0f64, f64::max);
    if fastest > 0.0 {
        for s in &mut speed_by_proc {
            *s /= fastest;
        }
    }

    let mut r_by_proc: Vec<f64> = (0..procs)
        .map(|i| {
            if g > 0.0 && sent_words[i] > 0 && send_time[i] > 0.0 {
                send_time[i] / (g * sent_words[i] as f64)
            } else {
                0.0
            }
        })
        .collect();
    let smallest = r_by_proc
        .iter()
        .copied()
        .filter(|&r| r > 0.0)
        .fold(f64::INFINITY, f64::min);
    if smallest.is_finite() && smallest > 0.0 {
        for r in &mut r_by_proc {
            *r /= smallest;
        }
    }
    ProcEstimates {
        speed_by_proc,
        r_by_proc,
    }
}

/// Fit a [`Calibration`] to an observed run. Needs at least as many
/// steps as unknowns (1 + number of distinct barrier levels) and
/// enough variation in `h` to separate `g` from the `L`s.
pub fn calibrate(steps: &[StepTrace]) -> Result<Calibration, String> {
    let fit = fit_gl(steps)?;
    let est = proc_estimates(steps, fit.g);
    Ok(Calibration {
        g: fit.g,
        l_by_level: fit.l_by_level,
        speed_by_proc: est.speed_by_proc,
        r_by_proc: est.r_by_proc,
        residual_rms: fit.residual_rms,
    })
}

/// A [`Calibration`] fitted while ignoring faulted supersteps.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustCalibration {
    /// The fit over the surviving steps.
    pub calibration: Calibration,
    /// Step ids excluded because a fault event named them (watchdog
    /// firings, degrade restarts), in ascending order.
    pub excluded: Vec<usize>,
    /// Step ids trimmed as residual outliers, in trim order.
    pub trimmed: Vec<usize>,
}

/// How far a step's fit residual must sit above the rms of the rest
/// before residual trimming treats it as a faulted outlier.
const TRIM_SIGMA: f64 = 3.0;

/// Fit a [`Calibration`] that is robust to faulted supersteps.
///
/// Two defenses compose:
///
/// 1. **Event exclusion** — steps named by `events` (a watchdog firing
///    or degrade restart at step `s`) are dropped unconditionally
///    before fitting; their timings reflect timeout machinery, not the
///    cost model.
/// 2. **Residual trimming** — after an initial fit, steps whose
///    residual exceeds `TRIM_SIGMA` (3σ) × the rms are dropped worst-first
///    and the model refit, until the fit is clean or at most
///    `max_trim` (a fraction of the window, clamped to `[0, 0.5]`)
///    has been trimmed. The cap is what lets *persistent* drift
///    survive: a transient straggle glitch is trimmed away, but a
///    machine that is slow in every step keeps the majority vote and
///    shifts the fit — exactly the signal an adaptive re-planner needs.
///
/// Per-processor speed and `r` estimates come from the surviving steps
/// only, priced at the robust `ĝ`.
pub fn calibrate_robust(
    steps: &[StepTrace],
    events: &[EventTrace],
    max_trim: f64,
) -> Result<RobustCalibration, String> {
    let faulted: BTreeSet<usize> = events
        .iter()
        .filter_map(|e| match e {
            EventTrace::WatchdogFired { step, .. } | EventTrace::Degraded { step, .. } => {
                Some(*step)
            }
            _ => None,
        })
        .collect();
    let mut kept: Vec<StepTrace> = steps
        .iter()
        .filter(|s| !faulted.contains(&s.step))
        .cloned()
        .collect();
    let excluded: Vec<usize> = steps
        .iter()
        .map(|s| s.step)
        .filter(|s| faulted.contains(s))
        .collect();

    let budget = (steps.len() as f64 * max_trim.clamp(0.0, 0.5)).floor() as usize;
    let mut trimmed = Vec::new();
    let fit = loop {
        let fit = fit_gl(&kept)?;
        if trimmed.len() >= budget || kept.len() <= 2 {
            break fit;
        }
        // Judge each step by its *leave-one-out* prediction residual:
        // refit without the step and see how badly the clean model
        // mispredicts it, relative to that fit's own rms. An in-fit
        // residual smears a glitch across every row (the fit bends to
        // absorb it); the deleted residual keeps the contrast sharp.
        let mut worst: Option<(usize, f64)> = None;
        for i in 0..kept.len() {
            let mut rest = kept.clone();
            let cand = rest.remove(i);
            if let Some(level) = cand.barrier {
                // The only step at its level cannot be judged: the
                // leave-one-out fit has no estimate of its L.
                if !rest.iter().any(|s| s.barrier == Some(level)) {
                    continue;
                }
            }
            let Ok(loo) = fit_gl(&rest) else { continue };
            let mut pred = loo.g * cand.hrelation;
            if let Some(level) = cand.barrier {
                pred += loo
                    .l_by_level
                    .iter()
                    .find(|(l, _)| *l == level)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
            }
            let pe = (cand.duration() - cand.observed_work_time()) - pred;
            let ratio = pe.abs() / loo.residual_rms.max(1e-9);
            if worst.map(|(_, w)| ratio > w).unwrap_or(true) {
                worst = Some((i, ratio));
            }
        }
        match worst {
            Some((i, ratio)) if ratio > TRIM_SIGMA => trimmed.push(kept.remove(i).step),
            _ => break fit,
        }
    };
    let est = proc_estimates(&kept, fit.g);
    Ok(RobustCalibration {
        calibration: Calibration {
            g: fit.g,
            l_by_level: fit.l_by_level,
            speed_by_proc: est.speed_by_proc,
            r_by_proc: est.r_by_proc,
            residual_rms: fit.residual_rms,
        },
        excluded,
        trimmed,
    })
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests of the fit itself")]
mod tests {
    use super::*;

    /// Build a synthetic barriered step consistent with parameters
    /// `g`, `L`, per-proc speed and r: proc i computes `work/speed`,
    /// sends for `r·g·words`, and the step lasts `w + g·h + L`.
    #[allow(clippy::too_many_arguments)]
    fn synth_step(
        step: usize,
        level: Level,
        g: f64,
        l: f64,
        h: f64,
        work: &[f64],
        speeds: &[f64],
        rs: &[f64],
        words: &[u64],
        t0: f64,
    ) -> StepTrace {
        let p = work.len();
        let starts = vec![t0; p];
        let compute_done: Vec<f64> = (0..p).map(|i| t0 + work[i] / speeds[i]).collect();
        let send_done: Vec<f64> = (0..p)
            .map(|i| compute_done[i] + rs[i] * g * words[i] as f64)
            .collect();
        let w = (0..p).map(|i| work[i] / speeds[i]).fold(0.0f64, f64::max);
        let release = t0 + w + g * h + l;
        StepTrace::from_record(&crate::probe::StepRecord {
            step,
            barrier: Some(level),
            starts: &starts,
            compute_done: &compute_done,
            send_done: &send_done,
            finish: &send_done,
            releases: &vec![release; p],
            words_by_level: &[0, words.iter().sum()],
            messages_by_level: &[0, p as u64],
            hrelation: h,
            work,
            sent_words: words,
            wall: None,
        })
    }

    #[test]
    fn recovers_exact_parameters_from_synthetic_run() {
        let g = 2.5;
        let l1 = 40.0;
        let l2 = 300.0;
        let speeds = [1.0, 0.5, 0.25];
        let rs = [1.0, 2.0, 4.0];
        let mut steps = Vec::new();
        let mut t0 = 0.0;
        for (i, (h, level)) in [(100.0, 1), (40.0, 1), (250.0, 2), (10.0, 2), (77.0, 1)]
            .into_iter()
            .enumerate()
        {
            let l = if level == 1 { l1 } else { l2 };
            let work = [30.0, 20.0, 10.0];
            let words = [50u64, 20, 5];
            let st = synth_step(i, level, g, l, h, &work, &speeds, &rs, &words, t0);
            t0 = st.releases()[0];
            steps.push(st);
        }
        let cal = calibrate(&steps).expect("fit succeeds");
        assert!((cal.g - g).abs() < 1e-9, "ĝ = {}", cal.g);
        assert!((cal.l_at(1).unwrap() - l1).abs() < 1e-9);
        assert!((cal.l_at(2).unwrap() - l2).abs() < 1e-6);
        assert!(cal.residual_rms < 1e-9);
        for (i, &s) in speeds.iter().enumerate() {
            assert!((cal.speed_by_proc[i] - s).abs() < 1e-9, "speed P{i}");
        }
        for (i, &r) in rs.iter().enumerate() {
            assert!((cal.r_by_proc[i] - r).abs() < 1e-9, "r P{i}");
        }
        assert_eq!(cal.r_ranking(), vec![0, 1, 2]);
        let text = cal.render();
        assert!(text.contains("calibrated g"), "{text}");
    }

    #[test]
    fn under_determined_fit_is_an_error() {
        let st = synth_step(0, 1, 1.0, 5.0, 10.0, &[1.0], &[1.0], &[1.0], &[4], 0.0);
        // One step, two unknowns (g and L[1]).
        let err = calibrate(&[st]).unwrap_err();
        assert!(err.contains("under-determined"), "{err}");
        assert!(calibrate(&[]).is_err());
    }

    /// A clean five-step run at known parameters, for the robust
    /// tests; `extra_l[i]` adds a one-step delay (a stall glitch) to
    /// step `i`'s closing barrier.
    fn run_with_glitches(g: f64, l1: f64, l2: f64, extra_l: &[f64; 5]) -> Vec<StepTrace> {
        let speeds = [1.0, 0.5, 0.25];
        let rs = [1.0, 2.0, 4.0];
        let mut steps = Vec::new();
        let mut t0 = 0.0;
        for (i, (h, level)) in [(100.0, 1), (40.0, 1), (250.0, 2), (10.0, 2), (77.0, 1)]
            .into_iter()
            .enumerate()
        {
            let l = if level == 1 { l1 } else { l2 };
            let st = synth_step(
                i,
                level,
                g,
                l + extra_l[i],
                h,
                &[30.0, 20.0, 10.0],
                &speeds,
                &rs,
                &[50u64, 20, 5],
                t0,
            );
            t0 = st.releases()[0];
            steps.push(st);
        }
        steps
    }

    fn clean_run(g: f64, l1: f64, l2: f64) -> Vec<StepTrace> {
        run_with_glitches(g, l1, l2, &[0.0; 5])
    }

    #[test]
    fn robust_fit_trims_a_transient_glitch() {
        let (g, l1, l2) = (2.5, 40.0, 300.0);
        // Step 1 stalls: its barrier releases 5000 time units late — a
        // transient glitch that would wreck the naive fit.
        let steps = run_with_glitches(g, l1, l2, &[0.0, 5000.0, 0.0, 0.0, 0.0]);
        let naive = calibrate(&steps).unwrap();
        assert!(
            (naive.l_at(1).unwrap() - l1).abs() > 100.0,
            "the glitch skews the naive fit (L̂[1] = {})",
            naive.l_at(1).unwrap()
        );
        let robust = calibrate_robust(&steps, &[], 0.25).unwrap();
        assert_eq!(robust.trimmed, vec![1], "the glitched step is trimmed");
        assert!(robust.excluded.is_empty());
        assert!((robust.calibration.g - g).abs() < 1e-6);
        assert!((robust.calibration.l_at(1).unwrap() - l1).abs() < 1e-6);
        assert!((robust.calibration.l_at(2).unwrap() - l2).abs() < 1e-6);
    }

    #[test]
    fn robust_fit_excludes_event_named_steps() {
        let (g, l1, l2) = (2.5, 40.0, 300.0);
        let steps = run_with_glitches(g, l1, l2, &[0.0, 0.0, 0.0, 0.0, 9e4]);
        let events = vec![EventTrace::WatchdogFired {
            step: 4,
            missing: vec![hbsp_core::ProcId(2)],
        }];
        // max_trim = 0: only event exclusion may drop steps.
        let robust = calibrate_robust(&steps, &events, 0.0).unwrap();
        assert_eq!(robust.excluded, vec![4]);
        assert!(robust.trimmed.is_empty());
        assert!((robust.calibration.g - g).abs() < 1e-6);
        assert!((robust.calibration.l_at(1).unwrap() - l1).abs() < 1e-6);
    }

    #[test]
    fn persistent_drift_survives_the_trim_cap() {
        // Every step inflated by the same extra per-word cost: there is
        // no outlier to trim — the shifted fit IS the signal.
        let (g, l1, l2) = (2.5, 40.0, 300.0);
        let drifted = clean_run(g * 1.6, l1, l2);
        let robust = calibrate_robust(&drifted, &[], 0.25).unwrap();
        assert!(robust.trimmed.is_empty(), "uniform drift is not an outlier");
        assert!(
            (robust.calibration.g - g * 1.6).abs() < 1e-6,
            "the drifted gap is reported, not suppressed: ĝ = {}",
            robust.calibration.g
        );
    }

    #[test]
    fn proc_estimates_work_without_a_gl_fit() {
        // Constant-h window: calibrate() fails, proc_estimates still
        // recovers speeds and r against a believed g.
        let a = synth_step(
            0,
            1,
            2.0,
            5.0,
            10.0,
            &[4.0, 4.0],
            &[1.0, 0.5],
            &[1.0, 3.0],
            &[8, 8],
            0.0,
        );
        let mut b = a.clone();
        b.step = 1;
        let steps = vec![a, b];
        assert!(calibrate(&steps).is_err());
        let est = proc_estimates(&steps, 2.0);
        assert!((est.speed_by_proc[0] - 1.0).abs() < 1e-9);
        assert!((est.speed_by_proc[1] - 0.5).abs() < 1e-9);
        assert!((est.r_by_proc[0] - 1.0).abs() < 1e-9);
        assert!((est.r_by_proc[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn constant_h_cannot_separate_g_from_l() {
        // Two steps with identical h and level: infinitely many (g, L)
        // fit; the normal equations are singular.
        let a = synth_step(0, 1, 1.0, 5.0, 10.0, &[1.0], &[1.0], &[1.0], &[4], 0.0);
        let mut b = a.clone();
        b.step = 1;
        assert!(calibrate(&[a, b]).is_err());
    }
}
