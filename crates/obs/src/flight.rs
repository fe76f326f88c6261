//! [`FlightRecorder`] — the always-on constructor of the one
//! [`Recorder`]. A [`Recorder::new`] keeps a growing copy of everything
//! it sees: right for tests and offline analysis, wrong for production,
//! where telemetry must be bounded and cheap enough to never turn off.
//! This name keeps a ring of the last `capacity` supersteps (no
//! allocation on the hot path once armed, and the recorder's one
//! uncontended lock per step) and counters instead of histograms.
//! Everything else — the store, the readers, [`Recorder::bundle`] on a
//! fault — is the recorder's own, reached through `Deref`.

use crate::probe::{ObsEvent, Probe, StepRecord};
use crate::record::{Recorder, StepTrace};

/// The always-on probe: a [`Recorder`] built as a ring. See the module
/// docs.
pub struct FlightRecorder(Recorder);

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Recorder keeping the last 64 supersteps.
    pub fn new() -> FlightRecorder {
        FlightRecorder(Recorder::flight())
    }

    /// Recorder keeping the last `capacity` supersteps (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder(Recorder::flight().keep_last(capacity))
    }

    /// The retained step records, oldest surviving first:
    /// [`Recorder::steps`] under the ring's name for it.
    pub fn snapshot(&self) -> Vec<StepTrace> {
        self.0.steps()
    }
}

impl std::ops::Deref for FlightRecorder {
    type Target = Recorder;

    fn deref(&self) -> &Recorder {
        &self.0
    }
}

impl Probe for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn on_step(&self, r: &StepRecord<'_>) {
        self.0.on_step(r)
    }

    fn on_event(&self, ev: &ObsEvent<'_>) {
        self.0.on_event(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StepWall;

    fn feed(fr: &Recorder, step: usize, t0: f64, skew: f64, wall: Option<StepWall<'_>>) {
        let finish = [t0 + 5.0, t0 + 5.0 + skew];
        fr.on_step(&StepRecord {
            step,
            barrier: Some(1),
            starts: &[t0, t0],
            compute_done: &[t0 + 2.0, t0 + 3.0],
            send_done: &[t0 + 3.0, t0 + 4.0],
            finish: &finish,
            releases: &[t0 + 6.0 + skew, t0 + 6.0 + skew],
            words_by_level: &[0, 8],
            messages_by_level: &[0, 2],
            hrelation: 8.0,
            work: &[2.0, 3.0],
            sent_words: &[4, 4],
            wall,
        });
    }

    #[test]
    fn ring_keeps_the_last_capacity_steps() {
        let fr = FlightRecorder::with_capacity(4);
        fr.arm(2, 2);
        for s in 0..10 {
            feed(&fr, s, s as f64 * 10.0, 0.1 * (s % 3) as f64, None);
        }
        assert_eq!(fr.recorded(), 10);
        let steps = fr.snapshot();
        assert_eq!(steps.len(), 4);
        assert_eq!(
            steps.iter().map(|s| s.step).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        // The survivors are full-fidelity records.
        assert_eq!(steps[0].procs(), 2);
        assert_eq!(steps[0].total_words(), 8);
        assert_eq!(steps[0].hrelation, 8.0);
        assert_eq!(steps[0].barrier, Some(1));
        let text = fr.metrics_text();
        assert!(text.contains("hbsp_steps_total 10\n"), "{text}");
        assert!(text.contains("hbsp_flight_overwrites_total 6\n"), "{text}");
    }

    #[test]
    fn snapshot_matches_a_recorder_of_the_same_stream() {
        let fr = FlightRecorder::with_capacity(64);
        let rec = Recorder::new();
        fr.arm(2, 2);
        for s in 0..12 {
            feed(&fr, s, s as f64 * 10.0, 0.1 * (s % 3) as f64, None);
            feed(&rec, s, s as f64 * 10.0, 0.1 * (s % 3) as f64, None);
        }
        assert_eq!(fr.snapshot(), rec.steps());
    }

    #[test]
    fn oversized_machines_are_clipped_not_corrupted() {
        let fr = FlightRecorder::with_capacity(8);
        fr.arm(1, 1);
        feed(&fr, 0, 0.0, 0.0, None); // 2 procs > armed 1
        assert_eq!(fr.recorded(), 0);
        assert!(fr.snapshot().is_empty());
        assert!(fr.metrics_text().contains("hbsp_flight_clipped_total 1\n"));
    }

    #[test]
    fn wall_marks_survive_the_ring() {
        let fr = FlightRecorder::with_capacity(4);
        fr.arm(2, 2);
        let wall = StepWall {
            body_start_ns: &[100, 110],
            body_end_ns: &[900, 950],
            leader_done_ns: 1200,
        };
        feed(&fr, 0, 0.0, 0.0, Some(wall));
        let steps = fr.snapshot();
        let kept = steps[0].wall().expect("wall retained");
        assert_eq!(kept.body_start_ns, wall.body_start_ns);
        assert_eq!(kept.body_end_ns, wall.body_end_ns);
        assert_eq!(kept.leader_done_ns, 1200);
    }

    #[test]
    fn events_flow_and_are_bounded() {
        let fr = FlightRecorder::new();
        fr.on_event(&ObsEvent::WatchdogFired {
            step: 3,
            missing: &[hbsp_core::ProcId(1)],
        });
        fr.on_event(&ObsEvent::RecoveryAttempt { attempt: 2 });
        assert_eq!(fr.events().len(), 2);
        assert!(fr.metrics_text().contains("hbsp_watchdog_firings_total 1"));
    }
}
