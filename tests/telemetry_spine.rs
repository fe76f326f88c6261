//! The telemetry spine end to end: one recorder behind both engines,
//! its views, its two retentions and its cursor reads.
//!
//! (i) `golden/trace_knob_*.txt` hold what the engines' removed
//! `.trace(true)` knob returned for the programs of its own tests,
//! captured at the last commit that had it. Timelines derived from a
//! recorder must reproduce them exactly — also where the two span rules
//! that used to exist disagree.

mod common;

use common::{arb_machine, RandomProgram};
use hbsp::obs::{FlightRecorder, ObsEvent, StepRecord, StepTrace};
use hbsp::prelude::*;
use hbsp::sim::{ascii_gantt, ProcTimeline, TraceSummary};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The simulator's trace test: every processor sends its pid to the
/// next rank for `rounds` supersteps.
struct RingShift {
    rounds: usize,
}

impl Program for RingShift {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _: &mut (),
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step == self.rounds {
            return StepOutcome::Done;
        }
        let next = ProcId(((env.pid.0 as usize + 1) % env.nprocs) as u32);
        ctx.send(next, 0, &[1, 2, 3, 4]);
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// The threaded runtime's trace test: a charged total exchange.
struct Exchange {
    rounds: usize,
}

impl Program for Exchange {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _: &mut (),
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step == self.rounds {
            return StepOutcome::Done;
        }
        ctx.charge(10.0);
        for q in (0..env.nprocs).filter(|&q| q != env.pid.rank()) {
            ctx.send(ProcId(q as u32), 7, &env.pid.0.to_le_bytes());
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// The executor's trace test: two processors trade 16 bytes twice.
struct PingPong;

impl Program for PingPong {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _: &mut (),
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step >= 2 {
            return StepOutcome::Done;
        }
        ctx.send(ProcId(1 - env.pid.0), 0, &[0; 16]);
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// One cluster-scoped step of uneven work on a machine whose clusters
/// synchronize for free: the last processor of each cluster to finish
/// waits for nobody, so its barrier wait has length zero — and, in the
/// faster cluster, ends the processor's activity before the run's end.
struct UnevenWork;

impl Program for UnevenWork {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _: &mut (),
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step == 1 {
            return StepOutcome::Done;
        }
        ctx.charge(100.0 + 37.0 * env.pid.rank() as f64);
        StepOutcome::Continue(SyncScope::Level(1))
    }
}

fn free_cluster_sync() -> MachineTree {
    let cluster = |procs: &[(f64, f64)]| (0.0, procs.to_vec());
    TreeBuilder::two_level(
        1.0,
        40.0,
        &[
            cluster(&[(1.0, 1.0), (2.0, 0.5)]),
            cluster(&[(1.5, 0.8), (3.0, 0.3)]),
        ],
    )
    .unwrap()
}

/// A run's timelines as the golden files spell them: every span with
/// its exact bounds (`{:?}` prints an `f64` so that it reads back to
/// the same bits), then the totals and the chart that `hbsp_run
/// --trace` prints.
fn render(timelines: &[ProcTimeline]) -> String {
    let mut out = String::new();
    for tl in timelines {
        let _ = writeln!(out, "{}", tl.pid);
        for s in &tl.spans {
            let _ = writeln!(out, "  {} {:?} {:?}", s.kind.name(), s.start, s.end);
        }
    }
    let _ = writeln!(out, "{:?}", TraceSummary::of(timelines));
    out + &ascii_gantt(timelines, 72)
}

/// `prog`'s steps on `exec`, as a recorder attached to it keeps them.
fn recorded<P: Program>(exec: Executor, prog: &P) -> Vec<StepTrace> {
    let recorder = Arc::new(Recorder::new());
    exec.probe(recorder.clone()).run(prog).unwrap();
    recorder.steps()
}

fn on_both_engines(tree: MachineTree) -> [Executor; 2] {
    let tree = Arc::new(tree);
    [Executor::simulator(tree.clone()), Executor::threads(tree)]
}

#[test]
fn recorder_views_reproduce_what_the_trace_knob_returned() {
    let flat = |l: f64, procs: &[(f64, f64)]| TreeBuilder::flat(1.0, l, procs).unwrap();
    let sim_flat4 = flat(10.0, &[(1.0, 1.0), (2.0, 0.5), (2.0, 0.5), (3.0, 0.3)]);
    let runtime_flat4 = flat(25.0, &[(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.35)]);
    let pair = flat(10.0, &[(1.0, 1.0), (2.0, 0.5)]);
    let check = |golden: &str, steps: Vec<StepTrace>| {
        assert_eq!(render(&ProcTimeline::from_steps(&steps)), golden);
    };
    for exec in on_both_engines(sim_flat4) {
        let steps = recorded(exec, &RingShift { rounds: 3 });
        check(include_str!("golden/trace_knob_ring_shift.txt"), steps);
    }
    for exec in on_both_engines(runtime_flat4) {
        let steps = recorded(exec, &Exchange { rounds: 3 });
        check(include_str!("golden/trace_knob_exchange.txt"), steps);
    }
    for exec in on_both_engines(pair) {
        check(
            include_str!("golden/trace_knob_ping_pong.txt"),
            recorded(exec, &PingPong),
        );
    }
    for exec in on_both_engines(free_cluster_sync()) {
        let steps = recorded(exec, &UnevenWork);
        // Where the knob's rule and the exporters' rule differ: P1
        // finishes its cluster's step last, at a time that is no whole
        // Gantt column. `StepTrace::spans` closes the step with a
        // zero-length barrier wait (the exporters rely on it); charted
        // as is, it would print `.` over the last column P1 computed in.
        let p1 = steps[0].spans(1);
        let wait = p1.last().unwrap();
        assert_eq!((wait.kind.glyph(), wait.duration()), ('.', 0.0));
        let column = wait.end / steps[1].finish()[3] * 72.0;
        assert_ne!(column, column.floor(), "not on a column boundary");
        let mut unelided = ProcTimeline::from_steps(&steps);
        unelided[1].spans = p1;
        let golden = include_str!("golden/trace_knob_uneven_work.txt");
        assert_ne!(render(&unelided), golden, "the rules disagree here");
        check(golden, steps);
    }
}

/// A step of a two-processor machine that says which step it is in
/// every column, so that a torn or misplaced record shows.
fn marked_step(i: u64) -> [f64; 2] {
    [i as f64, i as f64 + 0.5]
}

fn feed(recorder: &Recorder, i: u64) {
    let t = marked_step(i);
    recorder.on_step(&StepRecord {
        step: i as usize,
        barrier: Some(1),
        starts: &t,
        compute_done: &t,
        send_done: &t,
        finish: &t,
        releases: &t,
        words_by_level: &[i, i],
        messages_by_level: &[i, i],
        hrelation: i as f64,
        work: &t,
        sent_words: &[i, i],
        wall: None,
    });
}

/// `steps` are whole records of steps in `range`, in increasing order.
fn assert_whole_and_in_order(steps: &[StepTrace], range: std::ops::Range<u64>) {
    let mut expected = range.start;
    for st in steps {
        let i = st.step as u64;
        assert!(expected <= i && i < range.end, "step {i} out of order");
        expected = i + 1;
        let t = marked_step(i);
        for col in [
            st.starts(),
            st.compute_done(),
            st.send_done(),
            st.finish(),
            st.releases(),
            st.work(),
        ] {
            assert_eq!(col, t, "step {i} torn");
        }
        for col in [st.sent_words(), st.words_by_level(), st.messages_by_level()] {
            assert_eq!(col, [i, i], "step {i} torn");
        }
        assert_eq!(st.hrelation, i as f64);
    }
}

/// (iii) A keep-everything store grows by whole segments (64 KiB: 273
/// steps of this two-processor machine): a writer that crosses two
/// segment boundaries while another thread reads never shows that
/// reader a torn record, a missing one or one out of order — and a ring
/// being overwritten under its reader shows it whole records in order,
/// the rest counted as missed.
#[test]
fn concurrent_readers_see_whole_records_in_order() {
    const STEPS: u64 = 2 * 273 + 40;
    for (recorder, keeps_all) in [
        (Recorder::new(), true),
        (Recorder::new().keep_last(8), false),
    ] {
        // Forces the interleaving: the writer waits for the reader's
        // first read, the reader reads until the writer is done.
        let (reading, done) = (AtomicBool::new(false), AtomicBool::new(false));
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let (mut cursor, mut seen) = (0, 0);
                while cursor < STEPS {
                    let finished = done.load(Ordering::Acquire);
                    let since = recorder.steps_since(cursor);
                    reading.store(true, Ordering::Release);
                    assert_whole_and_in_order(&since.steps, cursor..since.next);
                    let read = since.steps.len() as u64;
                    assert_eq!(since.missed + read, since.next - cursor);
                    assert!(!keeps_all || since.missed == 0);
                    assert!(!finished || since.next == STEPS);
                    (cursor, seen) = (since.next, seen + read);
                }
                seen
            });
            while !reading.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            for i in 0..STEPS {
                feed(&recorder, i);
                if i % 8 == 0 {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
            let seen = reader.join().unwrap();
            assert!(seen <= STEPS && (!keeps_all || seen == STEPS));
        });
        assert_eq!(recorder.recorded(), STEPS);
        let kept = if keeps_all { STEPS } else { 8 };
        assert_eq!(recorder.steps().len() as u64, kept);
        assert_whole_and_in_order(&recorder.steps(), STEPS - kept..STEPS);
    }
}

/// Machines of different sizes behind one probe (what a degrading
/// executor does): a keep-everything recorder keeps every step, also of
/// a machine larger than the one it grew for; a ring is sized once, so
/// it keeps the smaller machine's steps whole and counts the larger
/// one's as clipped.
#[test]
fn one_recorder_takes_machines_of_different_sizes() {
    let recorder = Arc::new(Recorder::new());
    let flight = Arc::new(FlightRecorder::new());
    let flat = |p: usize| Arc::new(TreeBuilder::flat(1.0, 10.0, &vec![(1.0, 1.0); p]).unwrap());
    for p in [3, 2, 5] {
        for probe in [recorder.clone() as Arc<dyn Probe>, flight.clone()] {
            Executor::simulator(flat(p))
                .probe(probe)
                .run(&RingShift { rounds: 2 })
                .unwrap();
        }
    }
    let history = recorder.steps();
    let procs: Vec<usize> = history.iter().map(StepTrace::procs).collect();
    assert_eq!(procs, [3, 3, 3, 2, 2, 2, 5, 5, 5]);
    hbsp::obs::check_span_invariants(&history[6..]).unwrap();
    assert_eq!(
        flight.snapshot(),
        history[..6],
        "armed for three processors"
    );
    let metrics = flight.metrics_text();
    assert!(
        metrics.contains("hbsp_flight_clipped_total 3\n"),
        "{metrics}"
    );
}

/// One run's records to several recorders at once, so that they hold
/// the same wall-clock marks.
struct Tee(Vec<Arc<dyn Probe>>);

impl Probe for Tee {
    fn enabled(&self) -> bool {
        true
    }
    fn on_step(&self, record: &StepRecord<'_>) {
        self.0.iter().for_each(|p| p.on_step(record));
    }
    fn on_event(&self, event: &ObsEvent<'_>) {
        self.0.iter().for_each(|p| p.on_event(event));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (ii) Random HBSP^1–3 machines and programs, both engines: a
    /// capacity-`n` ring holds exactly the last `n` steps of what a
    /// keep-everything recorder holds; reading by cursor, one read per
    /// run as the scheduler reads one per batch, concatenates to the
    /// whole history; and a cursor the ring has overwritten reports the
    /// gap instead of handing back other steps.
    #[test]
    fn rings_and_cursor_reads_agree_with_the_whole_history(
        tree in arb_machine(),
        runs in proptest::collection::vec((1usize..5, any::<u64>()), 1..4),
        local_sync in any::<bool>(),
        n in 1usize..7,
        threaded in any::<bool>(),
    ) {
        let all = Arc::new(Recorder::new());
        let ring = Arc::new(FlightRecorder::with_capacity(n));
        let bounded = Arc::new(Recorder::new().keep_last(n));
        let tee = Arc::new(Tee(vec![all.clone(), ring.clone(), bounded.clone()]));
        let exec = match threaded {
            true => Executor::threads(Arc::new(tree)),
            false => Executor::simulator(Arc::new(tree)),
        }
        .probe(tee);
        let (mut cursor, mut by_cursor) = (0, Vec::new());
        for &(rounds, seed) in &runs {
            exec.run(&RandomProgram { rounds, seed, local_sync }).unwrap();
            let since = all.steps_since(cursor);
            prop_assert_eq!(since.steps.len(), rounds + 1);
            prop_assert_eq!((since.missed, since.next), (0, all.recorded()));
            by_cursor.extend(since.steps);

            let history = all.steps();
            let tail = &history[history.len().saturating_sub(n)..];
            prop_assert_eq!(&ring.snapshot()[..], tail);
            prop_assert_eq!(&bounded.steps()[..], tail);
            // A reader that slept through the run: of its rounds + 1
            // steps, those the ring no longer has are missed.
            let late = ring.steps_since(cursor);
            let kept = (rounds + 1).min(n);
            prop_assert_eq!(late.missed as usize, rounds + 1 - kept);
            prop_assert_eq!(&late.steps[..], &history[history.len() - kept..]);
            prop_assert_eq!(late.next, since.next);
            cursor = since.next;
        }
        prop_assert_eq!(by_cursor, all.steps());
        prop_assert_eq!(all.steps_since(cursor).steps.len(), 0);
    }
}
