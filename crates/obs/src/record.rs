//! [`Recorder`] — the one telemetry sink. It owns every stage between
//! a superstep and its readers: the step store, the event list, the
//! metrics [`Registry`], the only [`Probe`] implementation with a body
//! and the only conversion from [`ObsEvent`] to [`EventTrace`]. Two
//! constructors set what is kept ([`crate::FlightRecorder`] is a
//! forwarding newtype over the second):
//!
//! | | [`Recorder::new`] | [`crate::FlightRecorder::new`] |
//! |---|---|---|
//! | steps retained | all of them | the last 64 (`with_capacity(n)`) |
//! | `hbsp_*` histograms, per-level counters | kept | not kept |
//! | events retained | all of them | the first 1024 |
//!
//! **One lock**: steps, events and metrics live in one `Mutex`, taken
//! once per [`Probe::on_step`] and once per [`Probe::on_event`]. The
//! engines already serialize `on_step` (simulator loop / leader
//! section), so the writer never waits on itself, and every reader in
//! the workspace reads after the run has returned. A step costs plain
//! stores into its slot plus counter adds, and no allocation: a ring is
//! sized once when armed, and the keep-everything store grows by
//! appending 64 KiB segments (one allocation per segment, plus the
//! segment list's occasional doubling).
//!
//! **Readers** hold a cursor: [`Recorder::recorded`] counts the steps
//! seen so far and [`Recorder::steps_since`] copies only what arrived
//! after a cursor ([`Recorder::steps`] is that call from zero).

use crate::metrics::{self, CounterId, HistogramId, MetricSample, MetricValue, Registry};
use crate::postmortem::PostmortemBundle;
use crate::probe::{ObsEvent, Probe, StepRecord, StepWall};
use crate::span::{Span, SpanKind};
use hbsp_core::{Level, ProcId};
use std::sync::{Mutex, MutexGuard};

/// Highest hierarchy level tracked with a dedicated per-level metric;
/// deeper traffic still lands in the aggregate counters.
pub const MAX_TRACKED_LEVELS: usize = 8;

/// Number of per-processor `f64` columns in the arena.
const F_COLS: usize = 6;

/// A record's columns in arena order (a run without wall marks has two
/// empty ones), their lengths checked against each other.
fn columns<'a>(r: &StepRecord<'a>) -> ([&'a [f64]; F_COLS], [&'a [u64]; 5]) {
    let f = [
        r.starts,
        r.compute_done,
        r.send_done,
        r.finish,
        r.releases,
        r.work,
    ];
    let p = r.starts.len();
    let (body_start, body_end) = r.wall.map_or((&[][..], &[][..]), |w| {
        assert_eq!((w.body_start_ns.len(), w.body_end_ns.len()), (p, p));
        (w.body_start_ns, w.body_end_ns)
    });
    assert!(f.iter().all(|col| col.len() == p) && r.sent_words.len() == p);
    assert_eq!(r.messages_by_level.len(), r.words_by_level.len());
    let u = [
        r.sent_words,
        r.words_by_level,
        r.messages_by_level,
        body_start,
        body_end,
    ];
    (f, u)
}

/// Owned mirror of a [`StepRecord`]: everything observed about one
/// executed superstep.
///
/// All per-processor and per-level columns live in two flat arenas —
/// one `f64`, one `u64` — in the order the [`Recorder`]'s slots hold
/// them, so a reader copies a slot out with two allocations however
/// many columns the schema carries. Columns are exposed as slices
/// through accessor methods.
///
/// Arena layout, for `p` processors and `L` traffic levels:
///
/// ```text
/// f: [starts | compute_done | send_done | finish | releases | work]  6·p
/// u: [sent_words]                                                      p
///    [words_by_level | messages_by_level]                            2·L
///    [body_start_ns | body_end_ns]                  2·p, wall runs only
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StepTrace {
    /// Superstep index.
    pub step: usize,
    /// Barrier level; `None` for the final drain step.
    pub barrier: Option<Level>,
    /// Observed h-relation.
    pub hrelation: f64,
    procs: usize,
    levels: usize,
    has_wall: bool,
    leader_done_ns: u64,
    f: Box<[f64]>,
    u: Box<[u64]>,
}

impl StepTrace {
    /// Copy a borrowed [`StepRecord`] into one owned arena.
    pub fn from_record(r: &StepRecord<'_>) -> StepTrace {
        let (f, u) = columns(r);
        StepTrace {
            step: r.step,
            barrier: r.barrier,
            hrelation: r.hrelation,
            procs: r.starts.len(),
            levels: r.words_by_level.len(),
            has_wall: r.wall.is_some(),
            leader_done_ns: r.wall.map_or(0, |w| w.leader_done_ns),
            f: f.concat().into_boxed_slice(),
            u: u.concat().into_boxed_slice(),
        }
    }

    /// The `i`-th per-processor `f64` column.
    fn fcol(&self, i: usize) -> &[f64] {
        &self.f[i * self.procs..(i + 1) * self.procs]
    }

    /// Per-processor start times.
    pub fn starts(&self) -> &[f64] {
        self.fcol(0)
    }

    /// Per-processor compute-done times.
    pub fn compute_done(&self) -> &[f64] {
        self.fcol(1)
    }

    /// Per-processor send-done times.
    pub fn send_done(&self) -> &[f64] {
        self.fcol(2)
    }

    /// Per-processor finish times.
    pub fn finish(&self) -> &[f64] {
        self.fcol(3)
    }

    /// Per-processor release times.
    pub fn releases(&self) -> &[f64] {
        self.fcol(4)
    }

    /// Per-processor charged work units.
    pub fn work(&self) -> &[f64] {
        self.fcol(5)
    }

    /// Per-processor outgoing words.
    pub fn sent_words(&self) -> &[u64] {
        &self.u[..self.procs]
    }

    /// Words per hierarchy level (index 0 = self-sends).
    pub fn words_by_level(&self) -> &[u64] {
        &self.u[self.procs..self.procs + self.levels]
    }

    /// Messages per hierarchy level (index 0 = self-sends).
    pub fn messages_by_level(&self) -> &[u64] {
        let base = self.procs + self.levels;
        &self.u[base..base + self.levels]
    }

    /// Wall-clock marks (threaded engine only).
    pub fn wall(&self) -> Option<StepWall<'_>> {
        let (p, base) = (self.procs, self.procs + 2 * self.levels);
        self.has_wall.then(|| StepWall {
            body_start_ns: &self.u[base..base + p],
            body_end_ns: &self.u[base + p..base + 2 * p],
            leader_done_ns: self.leader_done_ns,
        })
    }

    /// Number of processors observed.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Step duration in virtual time: `max(release) - min(start)`.
    pub fn duration(&self) -> f64 {
        let start = self.starts().iter().copied().fold(f64::INFINITY, f64::min);
        let release = self.releases().iter().copied().fold(0.0f64, f64::max);
        release - start
    }

    /// Largest per-processor compute interval — the observed `w` term.
    pub fn observed_work_time(&self) -> f64 {
        self.starts()
            .iter()
            .zip(self.compute_done())
            .map(|(s, c)| c - s)
            .fold(0.0f64, f64::max)
    }

    /// Total words moved (self-sends included).
    pub fn total_words(&self) -> u64 {
        self.words_by_level().iter().sum()
    }

    /// Total messages (self-sends included).
    pub fn total_messages(&self) -> u64 {
        self.messages_by_level().iter().sum()
    }

    /// Virtual-time spans for processor `pid`, in time order — the
    /// one derivation of spans from a step; the exporters, the span
    /// invariants and `hbsp_sim`'s timelines are views over it. The
    /// closing [`SpanKind::BarrierWait`] is *always* emitted for a
    /// barriered step (even zero-length) so "barrier wait terminates
    /// the step" holds structurally; other empty spans are elided.
    pub fn spans(&self, pid: usize) -> Vec<Span> {
        let bounds = [0, 1, 2, 3, 4].map(|col| self.fcol(col)[pid]);
        let kinds = [
            SpanKind::Compute,
            SpanKind::Send,
            SpanKind::Unpack,
            SpanKind::BarrierWait,
        ];
        (0..4)
            .filter(|&k| bounds[k + 1] > bounds[k] || (k == 3 && self.barrier.is_some()))
            .map(|k| Span {
                kind: kinds[k],
                start: bounds[k],
                end: bounds[k + 1],
            })
            .collect()
    }

    /// Wall-clock spans for processor `pid` in nanoseconds: body
    /// (labelled [`SpanKind::Compute`]) then [`SpanKind::BarrierWait`]
    /// until the leader section completed. Empty on the simulator.
    pub fn wall_spans(&self, pid: usize) -> Vec<Span> {
        let Some(wall) = self.wall() else {
            return Vec::new();
        };
        let (start, end) = (wall.body_start_ns[pid] as f64, wall.body_end_ns[pid] as f64);
        let body = (end > start).then_some(Span {
            kind: SpanKind::Compute,
            start,
            end,
        });
        let wait = Span {
            kind: SpanKind::BarrierWait,
            start: end,
            end: (wall.leader_done_ns as f64).max(end),
        };
        body.into_iter().chain([wait]).collect()
    }
}

/// Owned mirror of an [`ObsEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventTrace {
    /// A barrier watchdog fired.
    WatchdogFired {
        /// Superstep being waited on.
        step: usize,
        /// Processors that never arrived.
        missing: Vec<ProcId>,
    },
    /// The executor degraded the machine.
    Degraded {
        /// Failing superstep boundary.
        step: usize,
        /// Removed processors.
        dead: Vec<ProcId>,
        /// Leaves remaining.
        remaining: usize,
    },
    /// Recovery attempt started.
    RecoveryAttempt {
        /// Attempt number (1-based).
        attempt: usize,
    },
    /// The adaptive controller re-planned the remaining work.
    Replan {
        /// Adaptive segment index (0-based).
        segment: usize,
        /// Global supersteps executed before the re-plan.
        step: usize,
        /// Observed drift that tripped the threshold.
        drift: f64,
        /// Strategy tag of the new plan.
        strategy: String,
        /// Predicted virtual time of the re-planned remainder.
        predicted: f64,
    },
}

/// Steps a fresh [`crate::FlightRecorder`] retains.
const FLIGHT_CAPACITY: usize = 64;

/// Most events a flight recorder retains (events are fault-path only;
/// the bound exists so a pathological event storm cannot grow memory).
const EVENT_CAPACITY: usize = 1024;

/// Header cells per arena slot (before the per-processor columns).
const HDR: usize = 7;

/// What a keep-everything store allocates at a time. Kept well under
/// the allocator's mmap threshold on purpose: a recorder often lives
/// for one run and grows on whichever thread leads the barrier, and a
/// large block freed there raises the allocator's thresholds and stays
/// in that thread's arena (`docs/performance.md` §7 measured a third
/// more resident memory under a threaded drain with doubling blocks).
const SEGMENT_BYTES: usize = 64 << 10;

/// One allocation of the step store: `slots` slots of `stride` cells
/// each, holding the steps numbered `first..`. A ring is a single
/// segment; a keep-everything store appends segments of
/// [`SEGMENT_BYTES`], each sized for the largest machine seen so far.
///
/// Slot layout (all cells `u64`; `f64` columns stored as bits) — the
/// header below, then a [`StepTrace`]'s `f` and `u` arenas, packed for
/// the step's own `p` and `L` (the stride leaves room for the largest
/// machine the segment was sized for):
///
/// ```text
/// 0 step   1 barrier+1   2 hrelation   3 procs   4 levels
/// 5 has_wall   6 leader_done_ns
/// ```
struct Segment {
    first: u64,
    slots: usize,
    procs: usize,
    levels: usize,
    stride: usize,
    cells: Box<[u64]>,
}

impl Segment {
    /// A segment for steps `first..`: a ring of `ring` slots, or as
    /// many as [`SEGMENT_BYTES`] hold.
    fn new(first: u64, ring: Option<usize>, procs: usize, levels: usize) -> Segment {
        let stride = HDR + (F_COLS + 3) * procs + 2 * levels;
        let slots = ring.unwrap_or((SEGMENT_BYTES / (8 * stride)).max(1));
        Segment {
            first,
            slots,
            procs,
            levels,
            stride,
            cells: vec![0; slots * stride].into_boxed_slice(),
        }
    }

    fn fits(&self, procs: usize, levels: usize) -> bool {
        procs <= self.procs && levels <= self.levels
    }

    /// Copy the step in slot `i` out.
    fn read(&self, i: usize) -> StepTrace {
        let slot = &self.cells[i * self.stride..(i + 1) * self.stride];
        let (procs, levels, has_wall) = (slot[3] as usize, slot[4] as usize, slot[5] != 0);
        let f_end = HDR + F_COLS * procs;
        let u_end = f_end + procs + 2 * levels + if has_wall { 2 * procs } else { 0 };
        StepTrace {
            step: slot[0] as usize,
            barrier: slot[1].checked_sub(1).map(|l| l as Level),
            hrelation: f64::from_bits(slot[2]),
            procs,
            levels,
            has_wall,
            leader_done_ns: slot[6],
            f: slot[HDR..f_end]
                .iter()
                .map(|&b| f64::from_bits(b))
                .collect(),
            u: slot[f_end..u_end].into(),
        }
    }
}

/// Everything a [`Recorder`] mutates, behind its one lock.
#[derive(Default)]
struct Store {
    /// Total steps recorded. Monotone.
    head: u64,
    /// Ordered by `first`; segment `n` holds the steps from its `first`
    /// up to the next segment's.
    segments: Vec<Segment>,
    events: Vec<EventTrace>,
    registry: Registry,
}

impl Store {
    /// Allocate the first segment if there is none (first call wins).
    fn arm(&mut self, ring: Option<usize>, procs: usize, levels: usize) {
        if self.segments.is_empty() {
            self.segments
                .push(Segment::new(self.head, ring, procs, levels));
        }
    }

    /// The slot step `head` of a `procs × levels` machine goes into;
    /// `None` when a ring is too small for it.
    fn next_slot(
        &mut self,
        ring: Option<usize>,
        procs: usize,
        levels: usize,
    ) -> Option<&mut [u64]> {
        let seq = self.head;
        self.arm(ring, procs, levels);
        let last = self.segments.last()?;
        let i = match ring {
            Some(cap) if last.fits(procs, levels) => seq % cap as u64,
            Some(_) => return None,
            None if seq == last.first + last.slots as u64 || !last.fits(procs, levels) => {
                let (procs, levels) = (procs.max(last.procs), levels.max(last.levels));
                self.segments.push(Segment::new(seq, None, procs, levels));
                0
            }
            None => seq - last.first,
        };
        let seg = self.segments.last_mut()?;
        let start = i as usize * seg.stride;
        Some(&mut seg.cells[start..start + seg.stride])
    }
}

/// What [`Recorder::steps_since`] found after a cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct StepsSince {
    /// The retained steps recorded at or after the cursor, oldest first.
    pub steps: Vec<StepTrace>,
    /// Steps recorded after the cursor that are no longer held: a ring
    /// overwrote them before they were read.
    pub missed: u64,
    /// The cursor to pass next time: [`Recorder::recorded`] as of this
    /// read.
    pub next: u64,
}

/// The metrics every recorder keeps.
struct Metrics {
    steps_total: CounterId,
    words_total: CounterId,
    messages_total: CounterId,
    watchdog_firings: CounterId,
    degrade_events: CounterId,
    recovery_attempts: CounterId,
    adaptive_replans: CounterId,
}

/// What the two constructors differ in besides retention.
enum Profile {
    Full(FullMetrics),
    Flight(FlightMetrics),
}

/// [`Recorder::new`]: per-level counters and the five histograms,
/// every event, and the process-wide poison-recovery delta in the
/// snapshot.
struct FullMetrics {
    level_words: Vec<CounterId>,
    level_messages: Vec<CounterId>,
    adaptive_drift: HistogramId,
    barrier_wait_virtual: HistogramId,
    hrelation: HistogramId,
    step_duration_virtual: HistogramId,
    step_wall_ns: HistogramId,
    poison_base: u64,
}

/// [`crate::FlightRecorder::new`]: counters only, the ring's own
/// bookkeeping and a bounded event list: a post-mortem reads the
/// retained steps, not distributions over past ones.
struct FlightMetrics {
    overwrites: CounterId,
    clipped: CounterId,
    events_dropped: CounterId,
}

/// The probe that records: owned [`StepTrace`]s, out-of-band
/// [`EventTrace`]s and the standard metric set. See the module docs.
pub struct Recorder {
    /// `Some(n)`: a ring of the last `n` steps. `None`: every step.
    ring: Option<usize>,
    store: Mutex<Store>,
    m: Metrics,
    profile: Profile,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// Recorder that keeps every step and event, with the full metric
    /// set (per-level counters and the five `hbsp_*` histograms).
    pub fn new() -> Recorder {
        let mut registry = Registry::new();
        let steps_total = registry.counter("hbsp_steps_total");
        let messages_total = registry.counter("hbsp_messages_total");
        let words_total = registry.counter("hbsp_words_total");
        let level_words = (0..MAX_TRACKED_LEVELS)
            .map(|l| registry.counter(format!("hbsp_words_total{{level=\"{l}\"}}")))
            .collect();
        let level_messages = (0..MAX_TRACKED_LEVELS)
            .map(|l| registry.counter(format!("hbsp_messages_total{{level=\"{l}\"}}")))
            .collect();
        let m = Metrics::events(&mut registry, [steps_total, words_total, messages_total]);
        let profile = FullMetrics {
            level_words,
            level_messages,
            adaptive_drift: registry.histogram("hbsp_adaptive_drift"),
            barrier_wait_virtual: registry.histogram("hbsp_barrier_wait_virtual"),
            hrelation: registry.histogram("hbsp_hrelation_observed"),
            step_duration_virtual: registry.histogram("hbsp_step_duration_virtual"),
            step_wall_ns: registry.histogram("hbsp_step_wall_ns"),
            poison_base: metrics::poison_recoveries(),
        };
        Recorder::build(None, registry, m, Profile::Full(profile))
    }

    /// The recorder behind [`crate::FlightRecorder`]: a ring of the
    /// last 64 steps with counters instead of histograms.
    pub(crate) fn flight() -> Recorder {
        let mut registry = Registry::new();
        let steps_total = registry.counter("hbsp_steps_total");
        let words_total = registry.counter("hbsp_words_total");
        let messages_total = registry.counter("hbsp_messages_total");
        let overwrites = registry.counter("hbsp_flight_overwrites_total");
        let clipped = registry.counter("hbsp_flight_clipped_total");
        let events_dropped = registry.counter("hbsp_flight_events_dropped_total");
        let m = Metrics::events(&mut registry, [steps_total, words_total, messages_total]);
        let profile = FlightMetrics {
            overwrites,
            clipped,
            events_dropped,
        };
        Recorder::build(Some(FLIGHT_CAPACITY), registry, m, Profile::Flight(profile))
    }

    fn build(ring: Option<usize>, registry: Registry, m: Metrics, profile: Profile) -> Recorder {
        Recorder {
            ring,
            store: Mutex::new(Store {
                registry,
                ..Store::default()
            }),
            m,
            profile,
        }
    }

    /// Bound memory: keep only the last `n` recorded steps (min 1) in a
    /// ring sized by the first step (or [`Recorder::arm`]). Metrics
    /// still count every step; a reader sees what the ring overwrote as
    /// [`StepsSince::missed`].
    pub fn keep_last(mut self, n: usize) -> Recorder {
        self.ring = Some(n.max(1));
        self
    }

    /// Allocate the store's first segment for a machine of `procs`
    /// leaves and `levels` tracked hierarchy levels, so that a ring
    /// performs no allocation at all afterwards (the first step arms an
    /// unarmed recorder). First call wins. A ring does not record steps
    /// from machines larger than it was armed for; a flight recorder
    /// counts them (`hbsp_flight_clipped_total`).
    pub fn arm(&self, procs: usize, levels: usize) {
        self.store().arm(self.ring, procs, levels);
    }

    /// The store past a poisoned lock, counted like `hbsp_runtime`'s
    /// `lock_anyway`. A panic while it was held cannot half-record a
    /// step: `on_step` checks the record before it takes the lock and
    /// advances `head` only after the slot is full.
    fn store(&self) -> MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(|poisoned| {
            metrics::record_poison_recovery();
            poisoned.into_inner()
        })
    }

    /// Total steps recorded since construction — the cursor
    /// [`Recorder::steps_since`] takes. Monotone; a ring has
    /// overwritten all but the last `n` of them.
    pub fn recorded(&self) -> u64 {
        self.store().head
    }

    /// Copy out the steps recorded at or after `cursor` (a value
    /// [`Recorder::recorded`] or [`StepsSince::next`] returned; `0` for
    /// everything retained), oldest first. Steps a ring no longer holds
    /// are counted in [`StepsSince::missed`], never replaced by other
    /// steps.
    pub fn steps_since(&self, cursor: u64) -> StepsSince {
        let store = self.store();
        let next = store.head;
        let cursor = cursor.min(next);
        let oldest = self.ring.map_or(0, |cap| next.saturating_sub(cap as u64));
        let retained = cursor.max(oldest)..next;
        let mut steps = Vec::with_capacity((retained.end - retained.start) as usize);
        let ends = store.segments.iter().skip(1).map(|s| s.first).chain([next]);
        for (seg, end) in store.segments.iter().zip(ends) {
            for seq in retained.start.max(seg.first)..retained.end.min(end) {
                let i = self.ring.map_or(seq - seg.first, |cap| seq % cap as u64);
                steps.push(seg.read(i as usize));
            }
        }
        StepsSince {
            missed: next - cursor - steps.len() as u64,
            steps,
            next,
        }
    }

    /// Copy of every retained step, in execution order. Steps from
    /// every attempt of a recovering run accumulate in sequence.
    pub fn steps(&self) -> Vec<StepTrace> {
        self.steps_since(0).steps
    }

    /// Copy of the retained events from index `cursor` on, oldest
    /// first; the next cursor is `cursor` plus the length returned.
    pub fn events_since(&self, cursor: usize) -> Vec<EventTrace> {
        let events = &self.store().events;
        events[cursor.min(events.len())..].to_vec()
    }

    /// Copy of the retained out-of-band events.
    pub fn events(&self) -> Vec<EventTrace> {
        self.events_since(0)
    }

    /// Snapshot of every metric; a [`Recorder::new`] appends the
    /// process-global poison-recovery delta as
    /// `hbsp_poisoned_lock_recoveries_total`.
    pub fn metrics(&self) -> Vec<MetricSample> {
        let mut out = self.store().registry.snapshot();
        if let Profile::Full(full) = &self.profile {
            let since = metrics::poison_recoveries().saturating_sub(full.poison_base);
            out.push(MetricSample {
                name: "hbsp_poisoned_lock_recoveries_total".to_string(),
                value: MetricValue::Counter(since),
            });
        }
        out
    }

    /// Text rendering of [`Recorder::metrics`].
    pub fn metrics_text(&self) -> String {
        metrics::render_text(&self.metrics())
    }

    /// Chrome trace-event JSON of everything retained. See
    /// [`crate::export::chrome_trace`].
    pub fn chrome_trace(&self) -> String {
        crate::export::chrome_trace(&self.steps())
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
        let steps = self.steps();
        PostmortemBundle {
            reason: reason.to_string(),
            engine: engine.to_string(),
            step: steps.last().map(|s| s.step).unwrap_or(0),
            machine: machine.to_string(),
            fault_plan: fault_plan.to_string(),
            steps,
            events: self.events(),
            metrics: self.metrics(),
            ..PostmortemBundle::default()
        }
    }
}

impl Metrics {
    /// Register the four event counters after the three traffic totals
    /// (the constructors differ in the order they export those).
    fn events(registry: &mut Registry, totals: [CounterId; 3]) -> Metrics {
        let [steps_total, words_total, messages_total] = totals;
        Metrics {
            steps_total,
            words_total,
            messages_total,
            watchdog_firings: registry.counter("hbsp_watchdog_firings_total"),
            degrade_events: registry.counter("hbsp_degrade_events_total"),
            recovery_attempts: registry.counter("hbsp_recovery_attempts_total"),
            adaptive_replans: registry.counter("hbsp_adaptive_replans_total"),
        }
    }
}

impl Probe for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn on_step(&self, r: &StepRecord<'_>) {
        let (p, levels) = (r.starts.len(), r.words_by_level.len());
        let (f, u) = columns(r);
        let mut guard = self.store();
        let store = &mut *guard;
        let seq = store.head;
        let Some(slot) = store.next_slot(self.ring, p, levels) else {
            if let Profile::Flight(flight) = &self.profile {
                store.registry.add(flight.clipped, 1);
            }
            return;
        };
        let header = [
            r.step as u64,
            r.barrier.map_or(0, |l| l as u64 + 1),
            r.hrelation.to_bits(),
            p as u64,
            levels as u64,
            u64::from(r.wall.is_some()),
            r.wall.map_or(0, |w| w.leader_done_ns),
        ];
        // Plain loops: an iterator chain over the columns cost this path
        // twice the time. The slot has room — `next_slot` checked the
        // fit. Each loop draws a cell only for a value it has (the value
        // side of the zip goes first), so no cell is skipped.
        let mut cells = slot.iter_mut();
        for (v, cell) in header.into_iter().zip(cells.by_ref()) {
            *cell = v;
        }
        for col in f {
            for (v, cell) in col.iter().zip(cells.by_ref()) {
                *cell = v.to_bits();
            }
        }
        for col in u {
            for (&v, cell) in col.iter().zip(cells.by_ref()) {
                *cell = v;
            }
        }
        store.head = seq + 1;

        let reg = &mut store.registry;
        if let (Some(cap), Profile::Flight(flight)) = (self.ring, &self.profile) {
            if seq >= cap as u64 {
                reg.add(flight.overwrites, 1);
            }
        }
        reg.add(self.m.steps_total, 1);
        reg.add(self.m.words_total, r.words_by_level.iter().sum::<u64>());
        reg.add(
            self.m.messages_total,
            r.messages_by_level.iter().sum::<u64>(),
        );
        let Profile::Full(full) = &self.profile else {
            return;
        };
        let by_level = full.level_words.iter().zip(r.words_by_level);
        for (&id, &v) in by_level.chain(full.level_messages.iter().zip(r.messages_by_level)) {
            reg.add(id, v);
        }
        reg.record(full.hrelation, r.hrelation);
        for (f, rel) in r.finish.iter().zip(r.releases) {
            reg.record(full.barrier_wait_virtual, rel - f);
        }
        let start = r.starts.iter().copied().fold(f64::INFINITY, f64::min);
        let release = r.releases.iter().copied().fold(0.0f64, f64::max);
        reg.record(full.step_duration_virtual, release - start);
        if let Some(wall) = &r.wall {
            let first = wall.body_start_ns.iter().copied().min().unwrap_or(0);
            reg.record(
                full.step_wall_ns,
                wall.leader_done_ns.saturating_sub(first) as f64,
            );
        }
    }

    fn on_event(&self, ev: &ObsEvent<'_>) {
        let m = &self.m;
        let (counter, owned) = match *ev {
            ObsEvent::WatchdogFired { step, missing } => (
                m.watchdog_firings,
                EventTrace::WatchdogFired {
                    step,
                    missing: missing.to_vec(),
                },
            ),
            ObsEvent::Degraded {
                step,
                dead,
                remaining,
            } => (
                m.degrade_events,
                EventTrace::Degraded {
                    step,
                    dead: dead.to_vec(),
                    remaining,
                },
            ),
            ObsEvent::RecoveryAttempt { attempt } => {
                (m.recovery_attempts, EventTrace::RecoveryAttempt { attempt })
            }
            ObsEvent::Replan {
                segment,
                step,
                drift,
                strategy,
                predicted,
            } => (
                m.adaptive_replans,
                EventTrace::Replan {
                    segment,
                    step,
                    drift,
                    strategy: strategy.to_string(),
                    predicted,
                },
            ),
        };
        let mut guard = self.store();
        let store = &mut *guard;
        // Forced re-plans report infinite drift (a structural mismatch,
        // not a measurement); keep the histogram sums finite.
        if let (Profile::Full(full), ObsEvent::Replan { drift, .. }) = (&self.profile, ev) {
            if drift.is_finite() {
                store.registry.record(full.adaptive_drift, *drift);
            }
        }
        store.registry.add(counter, 1);
        // A flight recorder at its bound counts an event as dropped.
        match &self.profile {
            Profile::Flight(flight) if store.events.len() >= EVENT_CAPACITY => {
                store.registry.add(flight.events_dropped, 1)
            }
            _ => store.events.push(owned),
        }
    }
}

/// Check the span invariants over a recorded run, per processor:
///
/// 1. spans are monotonically ordered and non-overlapping;
/// 2. each step's spans exactly cover `[start, release)` with no gaps;
/// 3. a barriered step's last span is [`SpanKind::BarrierWait`];
/// 4. consecutive steps abut (`start == previous release`).
///
/// Returns a description of the first violation, if any.
pub fn check_span_invariants(steps: &[StepTrace]) -> Result<(), String> {
    let procs = steps.iter().map(StepTrace::procs).max().unwrap_or(0);
    for pid in 0..procs {
        let mut prev_release: Option<f64> = None;
        for st in steps.iter().filter(|st| pid < st.procs()) {
            let spans = st.spans(pid);
            let step = st.step;
            if let Some(prev) = prev_release {
                if st.starts()[pid] != prev {
                    return Err(format!(
                        "proc {pid} step {step}: starts at {} but previous release was {prev}",
                        st.starts()[pid]
                    ));
                }
            }
            let mut cursor = st.starts()[pid];
            for (si, span) in spans.iter().enumerate() {
                if span.start != cursor {
                    return Err(format!(
                        "proc {pid} step {step} span {si} ({:?}): gap/overlap — starts at {} , cursor {cursor}",
                        span.kind, span.start
                    ));
                }
                if span.end < span.start {
                    return Err(format!(
                        "proc {pid} step {step} span {si} ({:?}): end {} before start {}",
                        span.kind, span.end, span.start
                    ));
                }
                cursor = span.end;
            }
            if cursor != st.releases()[pid] {
                return Err(format!(
                    "proc {pid} step {step}: spans end at {cursor}, release is {}",
                    st.releases()[pid]
                ));
            }
            if st.barrier.is_some() {
                match spans.last() {
                    Some(last) if last.kind == SpanKind::BarrierWait => {}
                    other => {
                        return Err(format!(
                            "proc {pid} step {step}: barriered step not terminated by \
                             BarrierWait (last span {other:?})"
                        ));
                    }
                }
            }
            prev_release = Some(st.releases()[pid]);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reborrow an owned trace as the record it came from.
    fn record_of(st: &StepTrace) -> StepRecord<'_> {
        StepRecord {
            step: st.step,
            barrier: st.barrier,
            starts: st.starts(),
            compute_done: st.compute_done(),
            send_done: st.send_done(),
            finish: st.finish(),
            releases: st.releases(),
            words_by_level: st.words_by_level(),
            messages_by_level: st.messages_by_level(),
            hrelation: st.hrelation,
            work: st.work(),
            sent_words: st.sent_words(),
            wall: st.wall(),
        }
    }

    fn synthetic_step(step: usize, barrier: Option<Level>, t0: f64) -> StepTrace {
        synthetic_step_released(step, barrier, t0, [t0 + 6.0, t0 + 6.0])
    }

    /// Like [`synthetic_step`] but with explicit release times (pass
    /// the finish times to exercise zero-length barrier waits).
    fn synthetic_step_released(
        step: usize,
        barrier: Option<Level>,
        t0: f64,
        releases: [f64; 2],
    ) -> StepTrace {
        StepTrace::from_record(&StepRecord {
            step,
            barrier,
            starts: &[t0, t0],
            compute_done: &[t0 + 2.0, t0 + 4.0],
            send_done: &[t0 + 3.0, t0 + 4.0],
            finish: &[t0 + 3.5, t0 + 5.0],
            releases: &releases,
            words_by_level: &[0, 8],
            messages_by_level: &[0, 2],
            hrelation: 8.0,
            work: &[2.0, 4.0],
            sent_words: &[4, 4],
            wall: None,
        })
    }

    #[test]
    fn recorder_owns_steps_and_counts_metrics() {
        let rec = Recorder::new();
        let st = synthetic_step(0, Some(1), 0.0);
        rec.on_step(&record_of(&st));
        assert_eq!(rec.steps(), vec![st]);
        let text = rec.metrics_text();
        assert!(text.contains("hbsp_steps_total 1\n"), "{text}");
        assert!(text.contains("hbsp_words_total 8\n"), "{text}");
        assert!(text.contains("hbsp_messages_total 2\n"), "{text}");
        assert!(text.contains("hbsp_words_total{level=\"1\"} 8\n"), "{text}");
        assert!(
            text.contains("hbsp_poisoned_lock_recoveries_total"),
            "{text}"
        );
    }

    #[test]
    fn events_are_recorded_and_counted() {
        let rec = Recorder::new();
        rec.on_event(&ObsEvent::WatchdogFired {
            step: 3,
            missing: &[ProcId(1)],
        });
        rec.on_event(&ObsEvent::Degraded {
            step: 3,
            dead: &[ProcId(1)],
            remaining: 7,
        });
        rec.on_event(&ObsEvent::RecoveryAttempt { attempt: 1 });
        assert_eq!(rec.events().len(), 3);
        let text = rec.metrics_text();
        assert!(text.contains("hbsp_watchdog_firings_total 1\n"));
        assert!(text.contains("hbsp_degrade_events_total 1\n"));
        assert!(text.contains("hbsp_recovery_attempts_total 1\n"));
    }

    #[test]
    fn spans_cover_step_and_end_in_barrier_wait() {
        let st = synthetic_step(0, Some(2), 10.0);
        let spans = st.spans(0);
        assert_eq!(
            spans.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![
                SpanKind::Compute,
                SpanKind::Send,
                SpanKind::Unpack,
                SpanKind::BarrierWait
            ]
        );
        // Proc 1 has no send span (compute_done == send_done) but still
        // ends in a barrier wait.
        let spans1 = st.spans(1);
        assert_eq!(spans1.first().unwrap().kind, SpanKind::Compute);
        assert_eq!(spans1.last().unwrap().kind, SpanKind::BarrierWait);
        assert!(check_span_invariants(&[st]).is_ok());
    }

    #[test]
    fn zero_length_barrier_wait_is_still_emitted() {
        let st = synthetic_step_released(0, Some(1), 0.0, [3.5, 5.0]);
        let spans = st.spans(1);
        let last = spans.last().unwrap();
        assert_eq!(last.kind, SpanKind::BarrierWait);
        assert_eq!(last.duration(), 0.0);
        assert!(check_span_invariants(&[st]).is_ok());
    }

    #[test]
    fn invariant_checker_finds_gaps_and_missing_waits() {
        // Gap between steps.
        let a = synthetic_step(0, Some(1), 0.0);
        let mut b = synthetic_step(1, Some(1), 7.0); // should start at 6.0
        b.step = 1;
        let err = check_span_invariants(&[a.clone(), b]).unwrap_err();
        assert!(err.contains("previous release"), "{err}");

        // Releases matching the finishes on a drain step are legal.
        let c = synthetic_step_released(0, None, 0.0, [3.5, 5.0]);
        assert!(check_span_invariants(&[c]).is_ok());
    }

    #[test]
    fn keep_last_bounds_memory_but_not_metrics() {
        let rec = Recorder::new().keep_last(3);
        for i in 0..10 {
            let st = synthetic_step(i, Some(1), i as f64 * 6.0);
            rec.on_step(&record_of(&st));
        }
        let steps = rec.steps();
        assert_eq!(steps.len(), 3);
        assert_eq!(
            steps.iter().map(|s| s.step).collect::<Vec<_>>(),
            vec![7, 8, 9]
        );
        // A reader from the start learns what the ring overwrote; one
        // that kept up misses nothing.
        let since = rec.steps_since(0);
        assert_eq!((since.missed, since.next, since.steps), (7, 10, steps));
        assert_eq!(rec.steps_since(8).steps.len(), 2);
        assert_eq!(rec.steps_since(8).missed, 0);
        // Metrics still saw every step.
        assert!(rec.metrics_text().contains("hbsp_steps_total 10\n"));
    }

    #[test]
    fn a_poisoned_event_list_still_records_and_reads() {
        let rec = Recorder::new();
        let before = metrics::poison_recoveries();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = rec.store.lock();
                panic!("poison the store");
            });
            assert!(holder.join().is_err());
        });
        let st = synthetic_step(0, Some(1), 0.0);
        rec.on_step(&record_of(&st));
        rec.on_event(&ObsEvent::RecoveryAttempt { attempt: 1 });
        assert_eq!(rec.steps(), vec![st]);
        assert_eq!(
            rec.events(),
            vec![EventTrace::RecoveryAttempt { attempt: 1 }]
        );
        let text = rec.metrics_text();
        assert!(text.contains("hbsp_steps_total 1\n"), "{text}");
        assert!(text.contains("hbsp_recovery_attempts_total 1\n"), "{text}");
        assert!(metrics::poison_recoveries() > before);
    }

    #[test]
    fn wall_spans_decompose_into_body_and_wait() {
        let base = synthetic_step(0, Some(1), 0.0);
        let st = StepTrace::from_record(&StepRecord {
            wall: Some(StepWall {
                body_start_ns: &[100, 150],
                body_end_ns: &[300, 500],
                leader_done_ns: 650,
            }),
            ..record_of(&base)
        });
        let spans = st.wall_spans(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].kind, SpanKind::Compute);
        assert_eq!((spans[0].start, spans[0].end), (100.0, 300.0));
        assert_eq!(spans[1].kind, SpanKind::BarrierWait);
        assert_eq!((spans[1].start, spans[1].end), (300.0, 650.0));
        assert!(st.spans(0).len() > 1, "virtual spans still present");
        assert!(synthetic_step(0, None, 0.0).wall_spans(0).is_empty());
    }
}
