//! [`FlightRecorder`] — the always-on probe: a fixed-capacity ring of
//! per-processor step records, overwrite-oldest, with zero allocation
//! and zero lock acquisition on the hot path once armed.
//!
//! The [`crate::Recorder`] owns a growing copy of everything it sees;
//! that is the right tool for tests and offline analysis but the wrong
//! one for production, where telemetry must be bounded and cheap
//! enough to never turn off. The flight recorder keeps only the last
//! `capacity` supersteps, laid out as preallocated per-processor
//! columns inside one atomic arena:
//!
//! * **Hot path** ([`Probe::on_step`]) — plain `Relaxed` stores into
//!   the current ring slot plus a handful of counter increments; no
//!   allocation, no mutex, no CAS loop. The engines already serialize
//!   `on_step` (simulator loop / leader section), so a single writer
//!   is an invariant, not a hope.
//! * **Owner stamps** — each slot carries a sequence stamp written
//!   last with `Release` ordering (the same publish discipline as the
//!   runtime's `ProcSlot`s). A snapshot reader validates the stamp
//!   before and after copying a slot and discards records overwritten
//!   mid-read, so [`FlightRecorder::snapshot`] is safe to call from
//!   any thread at any time — including from a fault handler while
//!   the run is still aborting.
//! * **Streaming anomaly detection** — an embedded
//!   [`crate::anomaly::AnomalyDetector`] (Welford moments in the same atomic arena)
//!   flags per-processor barrier skew and duration drift online,
//!   bumping `hbsp_anomaly_*` metrics and recording
//!   [`EventTrace::Anomaly`] events.
//!
//! On a fault, [`FlightRecorder::bundle`] freezes everything into a
//! [`crate::PostmortemBundle`].

use crate::anomaly::{
    welford_update, zscore, AnomalyConfig, METRIC_BARRIER_SKEW, METRIC_DURATION_DRIFT,
};
use crate::metrics::{CounterId, GaugeId, MetricSample, Registry};
use crate::postmortem::PostmortemBundle;
use crate::probe::{ObsEvent, Probe, StepRecord, StepWall};
use crate::record::{EventTrace, StepTrace};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default ring capacity, in supersteps.
pub const DEFAULT_CAPACITY: usize = 64;

/// Most events a recorder retains (events are fault-path only; the
/// bound exists so a pathological anomaly storm cannot grow memory).
const EVENT_CAPACITY: usize = 1024;

/// Header cells per ring slot (before the per-processor columns).
const HDR: usize = 8;
/// Number of per-processor `f64` columns.
const F_COLS: usize = 6;

/// The preallocated arena: ring slots plus detector state. Sized once
/// at arming time; never grows.
struct Arena {
    procs: usize,
    levels: usize,
    cap: usize,
    stride: usize,
    /// `cap · stride` cells. Slot layout (all cells `u64`; `f64`
    /// columns stored as bits):
    ///
    /// ```text
    /// 0 stamp   1 step   2 barrier+1   3 hrelation   4 procs
    /// 5 levels  6 has_wall  7 leader_done_ns
    /// 8.. starts|compute_done|send_done|finish|releases|work   6·P
    ///  .. sent_words                                             P
    ///  .. words_by_level|messages_by_level                     2·L
    ///  .. body_start_ns|body_end_ns                            2·P
    /// ```
    cells: Box<[AtomicU64]>,
    /// Welford moments: `[skew_mean | skew_m2 | dur_mean | dur_m2]`,
    /// each `procs` wide, `f64` bits. Single writer; `Relaxed` is
    /// enough — readers only consume via the metric counters.
    det: Box<[AtomicU64]>,
    det_n: AtomicU64,
}

impl Arena {
    fn new(procs: usize, levels: usize, cap: usize) -> Arena {
        let stride = HDR + (F_COLS + 3) * procs + 2 * levels;
        Arena {
            procs,
            levels,
            cap,
            stride,
            cells: (0..cap * stride).map(|_| AtomicU64::new(0)).collect(),
            det: (0..4 * procs).map(|_| AtomicU64::new(0)).collect(),
            det_n: AtomicU64::new(0),
        }
    }

    fn slot(&self, seq: u64) -> &[AtomicU64] {
        let base = (seq as usize % self.cap) * self.stride;
        &self.cells[base..base + self.stride]
    }
}

/// Handles for the metric set the recorder maintains on the hot path
/// (counters and gauges only — histograms cost a CAS loop per record).
struct FlightMetrics {
    steps_total: CounterId,
    words_total: CounterId,
    messages_total: CounterId,
    overwrites: CounterId,
    clipped: CounterId,
    events_dropped: CounterId,
    watchdog_firings: CounterId,
    degrade_events: CounterId,
    recovery_attempts: CounterId,
    replans: CounterId,
    anomaly_events: CounterId,
    anomaly_skew: CounterId,
    anomaly_drift: CounterId,
    anomaly_last_z: GaugeId,
}

/// The always-on probe. See the module docs.
pub struct FlightRecorder {
    capacity: usize,
    anomaly_cfg: AnomalyConfig,
    arena: OnceLock<Arena>,
    /// Total steps recorded (ring head). Monotone; `Release`-published
    /// after the slot it names is stamped.
    head: AtomicU64,
    events: Mutex<Vec<EventTrace>>,
    registry: Registry,
    m: FlightMetrics,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Recorder keeping the last [`DEFAULT_CAPACITY`] supersteps.
    pub fn new() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_CAPACITY)
    }

    /// Recorder keeping the last `capacity` supersteps (min 1).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let mut registry = Registry::new();
        let m = FlightMetrics {
            steps_total: registry.counter("hbsp_steps_total"),
            words_total: registry.counter("hbsp_words_total"),
            messages_total: registry.counter("hbsp_messages_total"),
            overwrites: registry.counter("hbsp_flight_overwrites_total"),
            clipped: registry.counter("hbsp_flight_clipped_total"),
            events_dropped: registry.counter("hbsp_flight_events_dropped_total"),
            watchdog_firings: registry.counter("hbsp_watchdog_firings_total"),
            degrade_events: registry.counter("hbsp_degrade_events_total"),
            recovery_attempts: registry.counter("hbsp_recovery_attempts_total"),
            replans: registry.counter("hbsp_adaptive_replans_total"),
            anomaly_events: registry.counter("hbsp_anomaly_events_total"),
            anomaly_skew: registry.counter("hbsp_anomaly_barrier_skew_total"),
            anomaly_drift: registry.counter("hbsp_anomaly_duration_drift_total"),
            anomaly_last_z: registry.gauge("hbsp_anomaly_last_zscore"),
        };
        FlightRecorder {
            capacity: capacity.max(1),
            anomaly_cfg: AnomalyConfig::default(),
            arena: OnceLock::new(),
            head: AtomicU64::new(0),
            events: Mutex::new(Vec::with_capacity(EVENT_CAPACITY.min(64))),
            registry,
            m,
        }
    }

    /// Override the anomaly detector knobs (before arming).
    pub fn anomaly_config(mut self, cfg: AnomalyConfig) -> FlightRecorder {
        self.anomaly_cfg = cfg;
        self
    }

    /// Preallocate the arena for a machine of `procs` leaves and
    /// `levels` tracked hierarchy levels. After this call the step
    /// path performs no allocation at all. Steps from machines larger
    /// than the armed size are counted (`hbsp_flight_clipped_total`)
    /// but not recorded; arming is idempotent and first-wins.
    pub fn arm(&self, procs: usize, levels: usize) {
        self.arena
            .get_or_init(|| Arena::new(procs, levels, self.capacity));
    }

    /// Ring capacity, in supersteps.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total steps recorded since construction (monotone; records
    /// older than the last [`FlightRecorder::capacity`] of these have
    /// been overwritten).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Copy of the retained events, oldest first.
    pub fn events(&self) -> Vec<EventTrace> {
        self.events.lock().expect("flight events lock").clone()
    }

    /// Snapshot of every metric.
    pub fn metrics(&self) -> Vec<MetricSample> {
        self.registry.snapshot()
    }

    /// Text rendering of the metrics.
    pub fn metrics_text(&self) -> String {
        self.registry.render_text()
    }

    /// Reconstruct the retained step records, oldest surviving first.
    /// Records overwritten while being read are skipped (stamp
    /// mismatch), so a concurrent snapshot is always coherent, never
    /// torn.
    pub fn snapshot(&self) -> Vec<StepTrace> {
        let Some(a) = self.arena.get() else {
            return Vec::new();
        };
        let head = self.head.load(Ordering::Acquire);
        let n = (head as usize).min(a.cap) as u64;
        let mut out = Vec::with_capacity(n as usize);
        let mut f = vec![0.0f64; F_COLS * a.procs];
        let mut sent = vec![0u64; a.procs];
        let mut by_level = vec![0u64; 2 * a.levels];
        let mut wall_ns = vec![0u64; 2 * a.procs];
        for seq in head - n..head {
            let slot = a.slot(seq);
            let stamp = slot[0].load(Ordering::Acquire);
            if stamp != seq + 1 {
                continue; // overwritten (or mid-write) — not ours
            }
            let step = slot[1].load(Ordering::Relaxed) as usize;
            let barrier_plus1 = slot[2].load(Ordering::Relaxed);
            let hrelation = f64::from_bits(slot[3].load(Ordering::Relaxed));
            let p = (slot[4].load(Ordering::Relaxed) as usize).min(a.procs);
            let levels = (slot[5].load(Ordering::Relaxed) as usize).min(a.levels);
            let has_wall = slot[6].load(Ordering::Relaxed) != 0;
            let leader_done_ns = slot[7].load(Ordering::Relaxed);
            let mut at = HDR;
            for col in 0..F_COLS {
                for i in 0..p {
                    f[col * a.procs + i] = f64::from_bits(slot[at].load(Ordering::Relaxed));
                    at += 1;
                }
            }
            for cell in sent.iter_mut().take(p) {
                *cell = slot[at].load(Ordering::Relaxed);
                at += 1;
            }
            for cell in by_level.iter_mut().take(2 * levels) {
                *cell = slot[at].load(Ordering::Relaxed);
                at += 1;
            }
            for cell in wall_ns.iter_mut().take(2 * p) {
                *cell = slot[at].load(Ordering::Relaxed);
                at += 1;
            }
            if slot[0].load(Ordering::Acquire) != stamp {
                continue; // overwritten while we copied
            }
            let fcol = |c: usize| &f[c * a.procs..c * a.procs + p];
            out.push(StepTrace::from_record(&StepRecord {
                step,
                barrier: if barrier_plus1 == 0 {
                    None
                } else {
                    Some((barrier_plus1 - 1) as u32)
                },
                starts: fcol(0),
                compute_done: fcol(1),
                send_done: fcol(2),
                finish: fcol(3),
                releases: fcol(4),
                words_by_level: &by_level[..levels],
                messages_by_level: &by_level[levels..2 * levels],
                hrelation,
                work: fcol(5),
                sent_words: &sent[..p],
                wall: has_wall.then_some(StepWall {
                    body_start_ns: &wall_ns[..p],
                    body_end_ns: &wall_ns[p..2 * p],
                    leader_done_ns,
                }),
            }));
        }
        out
    }

    /// Freeze the recorder's state into a [`PostmortemBundle`]. The
    /// caller supplies the context the recorder cannot know: why the
    /// bundle is being taken, which engine ran, and the pre-rendered
    /// machine tree and fault plan.
    pub fn bundle(
        &self,
        reason: &str,
        engine: &str,
        machine: &str,
        fault_plan: &str,
    ) -> PostmortemBundle {
        let steps = self.snapshot();
        PostmortemBundle {
            reason: reason.to_string(),
            engine: engine.to_string(),
            step: steps.last().map(|s| s.step).unwrap_or(0),
            machine: machine.to_string(),
            fault_plan: fault_plan.to_string(),
            steps,
            events: self.events(),
            decision_log: String::new(),
            metrics: self.metrics(),
            spans: Vec::new(),
        }
    }

    /// Push an event if the bound allows; count it as dropped
    /// otherwise.
    fn push_event(&self, ev: EventTrace) {
        let mut events = self.events.lock().expect("flight events lock");
        if events.len() < EVENT_CAPACITY {
            events.push(ev);
        } else {
            self.registry.c(self.m.events_dropped).inc();
        }
    }

    /// Run the streaming detector over one step: load each
    /// processor's moments, test, fold the observation in, store. One
    /// writer (the engine's leader), so plain `Relaxed` load/store —
    /// no CAS.
    fn detect(&self, a: &Arena, r: &StepRecord<'_>) {
        let p = r.finish.len().min(a.procs);
        if p == 0 {
            return;
        }
        let n0 = a.det_n.load(Ordering::Relaxed);
        let mean_finish = r.finish[..p].iter().sum::<f64>() / p as f64;
        let tested = n0 >= self.anomaly_cfg.warmup as u64;
        let ld = |cell: &AtomicU64| f64::from_bits(cell.load(Ordering::Relaxed));
        for i in 0..p {
            let obs = [
                (METRIC_BARRIER_SKEW, 0, r.finish[i] - mean_finish),
                (
                    METRIC_DURATION_DRIFT,
                    2 * a.procs,
                    r.finish[i] - r.starts[i],
                ),
            ];
            for (metric, base, x) in obs {
                let mean = ld(&a.det[base + i]);
                let m2 = ld(&a.det[base + a.procs + i]);
                if tested {
                    if let Some(z) = zscore(mean, m2, n0, x) {
                        if z.abs() > self.anomaly_cfg.threshold {
                            self.registry.c(self.m.anomaly_events).inc();
                            self.registry
                                .c(if metric == METRIC_BARRIER_SKEW {
                                    self.m.anomaly_skew
                                } else {
                                    self.m.anomaly_drift
                                })
                                .inc();
                            self.registry.g(self.m.anomaly_last_z).set(z);
                            self.push_event(EventTrace::Anomaly {
                                step: r.step,
                                pid: hbsp_core::ProcId(i as u32),
                                metric: metric.to_string(),
                                zscore: z,
                                value: x,
                                mean,
                            });
                        }
                    }
                }
                let (m, s) = welford_update(mean, m2, n0 + 1, x);
                a.det[base + i].store(m.to_bits(), Ordering::Relaxed);
                a.det[base + a.procs + i].store(s.to_bits(), Ordering::Relaxed);
            }
        }
        a.det_n.store(n0 + 1, Ordering::Relaxed);
    }
}

impl Probe for FlightRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn on_step(&self, r: &StepRecord<'_>) {
        let a = self
            .arena
            .get_or_init(|| Arena::new(r.starts.len(), r.words_by_level.len(), self.capacity));
        let p = r.starts.len();
        let levels = r.words_by_level.len();
        if p > a.procs || levels > a.levels {
            self.registry.c(self.m.clipped).inc();
            return;
        }
        let seq = self.head.load(Ordering::Relaxed);
        let slot = a.slot(seq);
        if seq >= a.cap as u64 {
            self.registry.c(self.m.overwrites).inc();
        }
        // Invalidate the slot, fill it, then publish the owner stamp.
        slot[0].store(0, Ordering::Release);
        slot[1].store(r.step as u64, Ordering::Relaxed);
        slot[2].store(
            r.barrier.map(|l| l as u64 + 1).unwrap_or(0),
            Ordering::Relaxed,
        );
        slot[3].store(r.hrelation.to_bits(), Ordering::Relaxed);
        slot[4].store(p as u64, Ordering::Relaxed);
        slot[5].store(levels as u64, Ordering::Relaxed);
        slot[6].store(u64::from(r.wall.is_some()), Ordering::Relaxed);
        slot[7].store(
            r.wall.as_ref().map(|w| w.leader_done_ns).unwrap_or(0),
            Ordering::Relaxed,
        );
        let mut at = HDR;
        for col in [
            r.starts,
            r.compute_done,
            r.send_done,
            r.finish,
            r.releases,
            r.work,
        ] {
            for &v in col {
                slot[at].store(v.to_bits(), Ordering::Relaxed);
                at += 1;
            }
            at += a.procs - p;
        }
        for &v in r.sent_words {
            slot[at].store(v, Ordering::Relaxed);
            at += 1;
        }
        at += a.procs - p;
        for col in [r.words_by_level, r.messages_by_level] {
            for &v in col {
                slot[at].store(v, Ordering::Relaxed);
                at += 1;
            }
            at += a.levels - levels;
        }
        if let Some(w) = &r.wall {
            for col in [w.body_start_ns, w.body_end_ns] {
                for &v in col {
                    slot[at].store(v, Ordering::Relaxed);
                    at += 1;
                }
                at += a.procs - p;
            }
        }
        slot[0].store(seq + 1, Ordering::Release);
        self.head.store(seq + 1, Ordering::Release);

        self.registry.c(self.m.steps_total).inc();
        self.registry
            .c(self.m.words_total)
            .add(r.words_by_level.iter().sum::<u64>());
        self.registry
            .c(self.m.messages_total)
            .add(r.messages_by_level.iter().sum::<u64>());
        self.detect(a, r);
    }

    fn on_event(&self, ev: &ObsEvent<'_>) {
        let owned = match ev {
            ObsEvent::WatchdogFired { step, missing } => {
                self.registry.c(self.m.watchdog_firings).inc();
                EventTrace::WatchdogFired {
                    step: *step,
                    missing: missing.to_vec(),
                }
            }
            ObsEvent::Degraded {
                step,
                dead,
                remaining,
            } => {
                self.registry.c(self.m.degrade_events).inc();
                EventTrace::Degraded {
                    step: *step,
                    dead: dead.to_vec(),
                    remaining: *remaining,
                }
            }
            ObsEvent::RecoveryAttempt { attempt } => {
                self.registry.c(self.m.recovery_attempts).inc();
                EventTrace::RecoveryAttempt { attempt: *attempt }
            }
            ObsEvent::Replan {
                segment,
                step,
                drift,
                strategy,
                predicted,
            } => {
                self.registry.c(self.m.replans).inc();
                EventTrace::Replan {
                    segment: *segment,
                    step: *step,
                    drift: *drift,
                    strategy: (*strategy).to_string(),
                    predicted: *predicted,
                }
            }
            ObsEvent::Anomaly {
                step,
                pid,
                metric,
                zscore,
                value,
                mean,
            } => {
                self.registry.c(self.m.anomaly_events).inc();
                EventTrace::Anomaly {
                    step: *step,
                    pid: *pid,
                    metric: (*metric).to_string(),
                    zscore: *zscore,
                    value: *value,
                    mean: *mean,
                }
            }
        };
        self.push_event(owned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(fr: &FlightRecorder, step: usize, t0: f64, skew: f64) {
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
            wall: None,
        });
    }

    #[test]
    fn ring_keeps_the_last_capacity_steps() {
        let fr = FlightRecorder::with_capacity(4);
        fr.arm(2, 2);
        for s in 0..10 {
            feed(&fr, s, s as f64 * 10.0, 0.1 * (s % 3) as f64);
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
        use crate::record::Recorder;
        let fr = FlightRecorder::with_capacity(64);
        let rec = Recorder::new();
        fr.arm(2, 2);
        for s in 0..12 {
            let t0 = s as f64 * 10.0;
            let r = StepRecord {
                step: s,
                barrier: if s == 11 { None } else { Some(0) },
                starts: &[t0, t0],
                compute_done: &[t0 + 1.0, t0 + 2.0],
                send_done: &[t0 + 2.0, t0 + 3.0],
                finish: &[t0 + 3.0, t0 + 4.0],
                releases: &[t0 + 10.0, t0 + 10.0],
                words_by_level: &[1, 7],
                messages_by_level: &[1, 3],
                hrelation: 7.0,
                work: &[1.0, 2.0],
                sent_words: &[3, 5],
                wall: None,
            };
            fr.on_step(&r);
            rec.on_step(&r);
        }
        assert_eq!(fr.snapshot(), rec.steps());
    }

    #[test]
    fn oversized_machines_are_clipped_not_corrupted() {
        let fr = FlightRecorder::with_capacity(8);
        fr.arm(1, 1);
        feed(&fr, 0, 0.0, 0.0); // 2 procs > armed 1
        assert_eq!(fr.recorded(), 0);
        assert!(fr.snapshot().is_empty());
        assert!(fr.metrics_text().contains("hbsp_flight_clipped_total 1\n"));
    }

    #[test]
    fn straggler_trips_the_online_detector() {
        let fr = FlightRecorder::with_capacity(64).anomaly_config(AnomalyConfig {
            threshold: 3.0,
            warmup: 4,
        });
        fr.arm(2, 2);
        for s in 0..20 {
            feed(&fr, s, s as f64 * 10.0, 0.1 * (s % 3) as f64);
        }
        feed(&fr, 20, 200.0, 50.0); // P1 suddenly 50 units late
        let events = fr.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, EventTrace::Anomaly { pid, .. } if pid.rank() == 1)),
            "{events:?}"
        );
        let text = fr.metrics_text();
        assert!(text.contains("hbsp_anomaly_events_total"), "{text}");
        let total: u64 = events
            .iter()
            .filter(|e| matches!(e, EventTrace::Anomaly { .. }))
            .count() as u64;
        assert!(text.contains(&format!("hbsp_anomaly_events_total {total}\n")));
    }

    #[test]
    fn wall_marks_survive_the_ring() {
        let fr = FlightRecorder::with_capacity(4);
        fr.arm(2, 1);
        fr.on_step(&StepRecord {
            step: 0,
            barrier: Some(0),
            starts: &[0.0, 0.0],
            compute_done: &[1.0, 1.0],
            send_done: &[1.0, 1.0],
            finish: &[2.0, 2.0],
            releases: &[3.0, 3.0],
            words_by_level: &[4],
            messages_by_level: &[1],
            hrelation: 4.0,
            work: &[1.0, 1.0],
            sent_words: &[4, 0],
            wall: Some(StepWall {
                body_start_ns: &[100, 110],
                body_end_ns: &[900, 950],
                leader_done_ns: 1200,
            }),
        });
        let steps = fr.snapshot();
        let wall = steps[0].wall().expect("wall retained");
        assert_eq!(wall.body_start_ns, &[100, 110]);
        assert_eq!(wall.body_end_ns, &[900, 950]);
        assert_eq!(wall.leader_done_ns, 1200);
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
