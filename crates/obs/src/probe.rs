//! The [`Probe`] trait — one observation interface for both engines.
//!
//! Engines call a probe at superstep boundaries (never inside the
//! per-processor hot path). The contract that keeps the disabled path
//! free is [`Probe::enabled`]: when it returns `false` the engine must
//! not assemble a [`StepRecord`] at all, so the default [`NoopProbe`]
//! costs one virtual call per superstep and nothing else.
//!
//! The same schema is populated by both engines:
//!
//! * the `Simulator` reports **virtual** times (model units) and leaves
//!   [`StepRecord::wall`] as `None`;
//! * the `ThreadedRuntime` reports the *same* virtual times (the two
//!   engines agree bit for bit) **plus** wall-clock marks measured with
//!   `Instant` in [`StepWall`].

use hbsp_core::{Level, ProcId};

/// Per-superstep observation, borrowed from engine state. Probes that
/// outlive the call must copy what they need (see
/// [`crate::record::StepTrace`] for an owned mirror).
#[derive(Debug, Clone, Copy)]
pub struct StepRecord<'a> {
    /// Superstep index (0-based).
    pub step: usize,
    /// Barrier level closing the step; `None` for the final drain step
    /// (no barrier — the program ends).
    pub barrier: Option<Level>,
    /// Per-processor step start times (previous step's releases).
    pub starts: &'a [f64],
    /// Per-processor compute-done times.
    pub compute_done: &'a [f64],
    /// Per-processor send-done (pack+post) times.
    pub send_done: &'a [f64],
    /// Per-processor finish times (all unpacks done).
    pub finish: &'a [f64],
    /// Per-processor barrier release times (`== finish` on a drain).
    pub releases: &'a [f64],
    /// Words crossing each hierarchy level; index 0 counts self-sends.
    pub words_by_level: &'a [u64],
    /// Messages crossing each hierarchy level; index 0 is self-sends.
    pub messages_by_level: &'a [u64],
    /// Observed h-relation of the step (self-sends excluded).
    pub hrelation: f64,
    /// Per-processor charged work units.
    pub work: &'a [f64],
    /// Per-processor outgoing words (self-sends included).
    pub sent_words: &'a [u64],
    /// Wall-clock marks — `ThreadedRuntime` only.
    pub wall: Option<StepWall<'a>>,
}

/// Wall-clock marks for one superstep on the threaded engine, in
/// nanoseconds since the run began.
///
/// The threaded engine has no wall-clock analogue of the simulator's
/// send/unpack boundary (delivery happens in the leader section), so
/// wall time decomposes into two spans per processor: body
/// `[body_start, body_end)` and barrier wait
/// `[body_end, leader_done)`, where `leader_done` approximates the
/// release (the barrier's leader section has just completed).
#[derive(Debug, Clone, Copy)]
pub struct StepWall<'a> {
    /// Per-processor body start (inbox take + user body).
    pub body_start_ns: &'a [u64],
    /// Per-processor body end (arrival at the barrier).
    pub body_end_ns: &'a [u64],
    /// When the leader section for this step completed.
    pub leader_done_ns: u64,
}

/// Out-of-band observability events: things that are not supersteps.
#[derive(Debug, Clone, Copy)]
pub enum ObsEvent<'a> {
    /// A barrier watchdog fired and aborted the run.
    WatchdogFired {
        /// Superstep being waited on.
        step: usize,
        /// Processors that never arrived.
        missing: &'a [ProcId],
    },
    /// The executor degraded the machine around dead processors.
    Degraded {
        /// Superstep boundary the failure was detected at.
        step: usize,
        /// Processors removed from the machine.
        dead: &'a [ProcId],
        /// Leaves remaining after degradation.
        remaining: usize,
    },
    /// The executor is starting recovery attempt `attempt` (1-based;
    /// the initial run is attempt 0 and is not announced).
    RecoveryAttempt {
        /// Attempt number.
        attempt: usize,
    },
    /// The adaptive controller re-planned the remaining work: drift
    /// between observed and predicted step times exceeded the
    /// threshold, the cost model was re-calibrated, and the residual
    /// schedule was re-tuned on the updated belief tree.
    Replan {
        /// Adaptive segment index (0-based) that triggered the re-plan.
        segment: usize,
        /// Global superstep count executed before the re-plan.
        step: usize,
        /// Observed drift (mean |observed−predicted|/predicted over the
        /// trailing window) that tripped the threshold.
        drift: f64,
        /// Human-readable strategy tag of the new plan.
        strategy: &'a str,
        /// Predicted virtual time of the re-planned remainder.
        predicted: f64,
    },
}

/// One observation interface for both engines.
///
/// Implementations must be cheap to call and thread-safe: on the
/// threaded engine `on_step` runs inside the leader section and
/// `on_event` may fire from a watchdog thread.
pub trait Probe: Send + Sync {
    /// Whether the probe wants data. Engines skip all observation
    /// assembly when this is `false`; implementations should make it a
    /// constant.
    fn enabled(&self) -> bool;

    /// A superstep completed.
    fn on_step(&self, record: &StepRecord<'_>) {
        let _ = record;
    }

    /// An out-of-band event occurred.
    fn on_event(&self, event: &ObsEvent<'_>) {
        let _ = event;
    }
}

/// The default probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn enabled(&self) -> bool {
        false
    }
}

/// A shared no-op probe, the default for every engine builder.
pub fn noop() -> std::sync::Arc<dyn Probe> {
    std::sync::Arc::new(NoopProbe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled() {
        assert!(!NoopProbe.enabled());
        assert!(!noop().enabled());
    }

    #[test]
    fn default_hooks_are_callable() {
        let p = NoopProbe;
        p.on_event(&ObsEvent::RecoveryAttempt { attempt: 1 });
        let empty_f: &[f64] = &[];
        let empty_u: &[u64] = &[];
        p.on_step(&StepRecord {
            step: 0,
            barrier: Some(0),
            starts: empty_f,
            compute_done: empty_f,
            send_done: empty_f,
            finish: empty_f,
            releases: empty_f,
            words_by_level: empty_u,
            messages_by_level: empty_u,
            hrelation: 0.0,
            work: empty_f,
            sent_words: empty_u,
            wall: None,
        });
    }
}
