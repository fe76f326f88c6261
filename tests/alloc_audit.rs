//! Heap-allocation audit of the per-superstep hot path.
//!
//! The engines batch every superstep's traffic into flat SoA arenas
//! (`MsgBatch`) that are reused across steps, so in steady state the
//! cost of a superstep must not scale allocations with the number of
//! messages: posting a message appends bytes into an existing arena,
//! delivering one appends a `(src, index)` row to a reused list, and
//! receivers read their rows in place out of the senders' arenas — on
//! the simulator and the threaded runtime alike.
//!
//! This test pins that property with a counting global allocator: the
//! same program run with 8× the messages per step must allocate (to
//! within a small constant for one-time arena growth) exactly as often
//! as the 1-message-per-step run. Any per-message allocation that
//! sneaks back into the engine, the mailbox, or the codec multiplies
//! with `messages × steps` and blows the bound by orders of magnitude.
//!
//! Everything lives in one `#[test]` so no concurrent test pollutes
//! the process-wide counter.

mod common;

use common::Wire;
use hbsp_core::{
    ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope, TreeBuilder, WireWriter,
};
use hbsp_runtime::ThreadedRuntime;
use hbsp_sim::Simulator;
use hbsplib::Executor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Serializes the tests in this binary: the allocation counter is
/// process-wide, so a concurrently-running test would pollute it.
static AUDIT_LOCK: Mutex<()> = Mutex::new(());

/// Counts every heap allocation (alloc and realloc) in the process.
struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's share of `ALLOCS`, for audits of code that
    /// runs on the test's own thread: the libtest harness allocates on
    /// its thread whenever it starts another test, which a zero-bound
    /// on the process-wide counter cannot tolerate. (Const-initialized
    /// and without a destructor, so the allocator may touch it at any
    /// point of a thread's life.)
    static THREAD_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const STEPS: usize = 400;

/// Append `len` copies of `byte` through `w`, allocating nothing.
fn fill(w: &mut WireWriter<'_>, len: usize, byte: u8) {
    for _ in 0..len / 64 {
        w.bytes(&[byte; 64]);
    }
    w.bytes(&[byte; 64][..len % 64]);
}

/// Every processor sends `k` fixed-size messages per step around a
/// ring, then drains its inbox; payload size is constant so arena
/// capacities stabilize after the first few steps.
struct Ring {
    k: usize,
}

impl SpmdProgram for Ring {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest = digest
                .wrapping_mul(31)
                .wrapping_add(m.src.0 as u64 + m.payload[0] as u64);
        }
        if step == STEPS {
            return StepOutcome::Done;
        }
        let p = env.nprocs;
        let next = ProcId(((env.pid.rank() + 1) % p) as u32);
        for i in 0..self.k {
            ctx.send_with(&[next], i as u32, 16, &mut |w| {
                fill(w, 16, (step % 251) as u8)
            });
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

fn machine() -> Arc<hbsp_core::MachineTree> {
    Arc::new(
        TreeBuilder::flat(
            1.0,
            20.0,
            &[(1.0, 1.0), (1.3, 0.8), (1.9, 0.55), (2.4, 0.4)],
        )
        .unwrap(),
    )
}

fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// Allocations `f` makes on the calling thread.
fn thread_allocs_during<R>(f: impl FnOnce() -> R) -> usize {
    let before = THREAD_ALLOCS.get();
    std::hint::black_box(f());
    THREAD_ALLOCS.get() - before
}

#[expect(clippy::disallowed_methods, reason = "audits the engines themselves")]
#[test]
fn steady_state_supersteps_allocate_nothing_per_message() {
    let _serial = AUDIT_LOCK.lock().unwrap();
    let tree = machine();

    // Warmup the engines once so lazily-initialized process state
    // (thread-pool bookkeeping, panic machinery, statics) is paid for
    // outside the measured runs.
    Simulator::new(Arc::clone(&tree))
        .run_with_states(&Ring { k: 8 })
        .unwrap();
    ThreadedRuntime::new(Arc::clone(&tree))
        .run_with_states(&Ring { k: 8 })
        .unwrap();

    // One-time arena growth may differ between the k=1 and k=8 runs
    // (larger batches take a few more capacity doublings); a
    // per-message allocation would instead differ by at least
    // 7 messages × 400 steps × 4 procs = 11200.
    const SLACK: usize = 512;

    for engine in ["simulator", "threaded"] {
        let run = |k: usize| {
            let prog = Ring { k };
            let tree = Arc::clone(&tree);
            match engine {
                "simulator" => {
                    allocs_during(|| Simulator::new(tree).run_with_states(&prog).unwrap().1)
                }
                _ => allocs_during(|| ThreadedRuntime::new(tree).run_with_states(&prog).unwrap().1),
            }
        };
        let (a1, _) = run(1);
        let (a8, states) = run(8);
        assert!(!states.iter().all(|&d| d == 0), "program really ran");
        assert!(
            a8 <= a1 + SLACK,
            "{engine}: k=8 run allocated {a8} times vs {a1} for k=1 — \
             more than {SLACK} extra means a per-message allocation is back \
             on the hot path"
        );
    }
}

/// [`Ring`] over a chosen number of steps, posting slices (`ctx.send`)
/// to the next rank and to itself, with rank `step % p` silent: each
/// arena or outbox parity and each row list meets a full step, an empty
/// one and a full one again.
struct Relay {
    steps: usize,
}

impl SpmdProgram for Relay {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest = digest.wrapping_mul(31).wrapping_add(m.payload.len() as u64);
        }
        if step == self.steps {
            return StepOutcome::Done;
        }
        let p = env.nprocs;
        if step % p != env.pid.rank() {
            let next = ProcId(((env.pid.rank() + 1) % p) as u32);
            for tag in 0..4 {
                ctx.send(next, tag, &[step as u8; 48]);
            }
            ctx.send(env.pid, 9, &[1; 8]);
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// The message path in steady state, step by step rather than message
/// by message. The threaded engine's outboxes (two per rank, used on
/// alternate steps), pull lists and per-rank source tables (one per run,
/// refilled every body) grow in a run's first steps and then cycle, so
/// 300 more supersteps cost what they cost the simulator — the step
/// algebra both engines share (a `StepStats` with its traffic vector,
/// the release times, the h-relation) — and nothing for the data plane.
/// A buffer rebuilt every step by any of the four ranks, on either
/// parity, adds 300; by each of them, 1200.
#[expect(clippy::disallowed_methods, reason = "audits the engines themselves")]
#[test]
fn steady_state_supersteps_of_the_threaded_engine_allocate_nothing_per_rank() {
    let _serial = AUDIT_LOCK.lock().unwrap();
    let tree = machine();
    let more_steps_cost = |engine: &str| {
        let run = |steps: usize| {
            let (prog, tree) = (Relay { steps }, Arc::clone(&tree));
            let (allocs, states) = match engine {
                "simulator" => {
                    allocs_during(|| Simulator::new(tree).run_with_states(&prog).unwrap().1)
                }
                _ => allocs_during(|| ThreadedRuntime::new(tree).run_with_states(&prog).unwrap().1),
            };
            assert!(!states.iter().all(|&d| d == 0), "program really ran");
            allocs
        };
        run(100);
        run(400).saturating_sub(run(100))
    };
    let [sim, threaded] = ["simulator", "threaded"].map(more_steps_cost);
    assert!(
        threaded < sim + 150,
        "300 more supersteps allocated {threaded} more times on threads, {sim} on the \
         simulator: a message-path buffer is being rebuilt every step"
    );
}

/// Every rank posts one 64-byte payload a step to every rank, itself
/// included, with one `send_with` — or, with `fanned` off, to its
/// successor only.
struct FanAll {
    steps: usize,
    fanned: bool,
}

impl SpmdProgram for FanAll {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest = digest.wrapping_mul(31).wrapping_add(m.payload[63] as u64);
        }
        if step == self.steps {
            return StepOutcome::Done;
        }
        const ALL: [ProcId; 4] = [ProcId(0), ProcId(1), ProcId(2), ProcId(3)];
        let next = [ALL[(env.pid.rank() + 1) % env.nprocs]];
        let dsts = if self.fanned {
            &ALL[..env.nprocs]
        } else {
            &next
        };
        ctx.send_with(dsts, 0, 64, &mut |w| fill(w, 64, (step % 251) as u8 + 1));
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// A payload posted once for several destinations costs the message
/// path nothing per step on either engine: 300 more supersteps of
/// [`FanAll`] allocate what 300 more of the same program posting to one
/// destination allocate — the step algebra's own — where a row table
/// or an arena rebuilt per step would add 300.
#[expect(clippy::disallowed_methods, reason = "audits the engines themselves")]
#[test]
fn steady_state_fan_out_allocates_nothing_per_step() {
    let _serial = AUDIT_LOCK.lock().unwrap();
    let tree = machine();
    for engine in ["simulator", "threaded"] {
        let more_steps_cost = |fanned: bool| {
            let run = |steps: usize| {
                let (prog, tree) = (FanAll { steps, fanned }, Arc::clone(&tree));
                let (allocs, states) = match engine {
                    "simulator" => {
                        allocs_during(|| Simulator::new(tree).run_with_states(&prog).unwrap().1)
                    }
                    _ => allocs_during(|| {
                        ThreadedRuntime::new(tree).run_with_states(&prog).unwrap().1
                    }),
                };
                assert!(
                    states.iter().all(|&d| d != 0),
                    "{engine}: program really ran"
                );
                allocs
            };
            run(100);
            run(400).saturating_sub(run(100))
        };
        let (single, fanned) = (more_steps_cost(false), more_steps_cost(true));
        assert!(
            fanned < single + 150,
            "{engine}: 300 more supersteps allocated {fanned} more times fanning out, \
             {single} posting to one rank: a message-path buffer is rebuilt every step"
        );
    }
}

/// The runtime's sync facade (`hbsp_runtime::sync`) is free on the
/// hot path: in a normal (non-exploration) build every primitive —
/// atomics, mutex lock/unlock, condvar notify, `Instant::now` —
/// forwards straight to `std` and performs zero heap allocations in
/// steady state. This holds even when the `model` feature is unified
/// into the build (workspace `cargo test` builds `hbsp-runtime` with
/// it via `hbsp-race`): outside `weave::explore` the facade passes
/// through, and the model metadata is allocated lazily only inside an
/// exploration. The engine-level cost is pinned by
/// `steady_state_supersteps_allocate_nothing_per_message`, which runs
/// the whole ported runtime (barrier, engine) through the facade.
#[test]
fn sync_facade_adds_no_allocations_to_hot_primitives() {
    use hbsp_runtime::sync::atomic::{AtomicU64, Ordering as O};
    use hbsp_runtime::sync::{Condvar, Instant, Mutex};
    let _serial = AUDIT_LOCK.lock().unwrap();
    let m = Mutex::new(0u64);
    let cv = Condvar::new();
    let a = AtomicU64::new(0);
    // One warmup round so any lazily-initialized std state (e.g. the
    // first clock read) is paid for outside the measured loop.
    *m.lock().unwrap() += Instant::now().elapsed().as_nanos() as u64;
    cv.notify_one();
    // This thread's count: the harness starts the next test meanwhile.
    let n = thread_allocs_during(|| {
        for i in 0..10_000u64 {
            a.fetch_add(i, O::Release);
            a.load(O::Acquire);
            let mut g = m.lock().unwrap();
            *g = g.wrapping_add(i);
            drop(g);
            cv.notify_one();
            std::hint::black_box(Instant::now());
        }
    });
    assert_eq!(
        n, 0,
        "facade primitives allocated {n} times in 10k iterations — the \
         facade must be a zero-cost forwarder outside explorations"
    );
    assert!(!hbsp_runtime::sync::is_modeling());
}

/// Arming the flight recorder must not put allocations back on the
/// per-superstep hot path: its ring is a fixed arena of atomics sized
/// at arm time, and `on_step` only stores into it. The probe-on run
/// therefore may allocate only a constant amount more than probe-off
/// (the arena itself plus one-time probe bookkeeping) — never
/// per-step. A per-step allocation in the probe path multiplies with
/// 400 steps and blows the bound immediately.
#[expect(clippy::disallowed_methods, reason = "audits the engines themselves")]
#[test]
fn armed_flight_recorder_allocates_nothing_per_superstep() {
    use hbsp_obs::FlightRecorder;
    let _serial = AUDIT_LOCK.lock().unwrap();
    let tree = machine();
    let prog = Ring { k: 8 };

    // Arena growth inside the engines is already paid for by warmup;
    // the recorder's own arena is allocated at arm time (the warmup
    // run arms it), so the measured deltas compare like with like.
    const SLACK: usize = 512;

    for engine in ["simulator", "threaded"] {
        let rec = Arc::new(FlightRecorder::new());
        let run = |probe: Option<Arc<FlightRecorder>>| {
            let tree = Arc::clone(&tree);
            match engine {
                "simulator" => {
                    let mut sim = Simulator::new(tree);
                    if let Some(p) = probe {
                        sim = sim.probe(p);
                    }
                    allocs_during(|| sim.run_with_states(&prog).unwrap().1)
                }
                _ => {
                    let mut rt = ThreadedRuntime::new(tree);
                    if let Some(p) = probe {
                        rt = rt.probe(p);
                    }
                    allocs_during(|| rt.run_with_states(&prog).unwrap().1)
                }
            }
        };
        // Warmup arms the recorder (first on_step sizes the arena) and
        // pays the engines' one-time costs.
        run(Some(rec.clone()));
        let (off, _) = run(None);
        let (on, states) = run(Some(rec.clone()));
        assert!(!states.iter().all(|&d| d == 0), "program really ran");
        assert!(rec.recorded() > 0, "recorder saw the run");
        assert!(
            on <= off + SLACK,
            "{engine}: probe-on run allocated {on} times vs {off} probe-off — \
             more than {SLACK} extra means the armed flight recorder \
             allocates on the per-superstep hot path"
        );
    }
}

/// The recorder's own store, step by step on this thread: a ring is
/// one arena sized when armed, and a keep-everything store grows by
/// whole 64 KiB segments (170 steps of this machine each), so recording
/// allocates per segment — its cells, and now and then a table of the
/// directory that indexes the segments — and never per step.
#[test]
fn the_recorder_store_allocates_per_segment_never_per_step() {
    use hbsp_obs::{FlightRecorder, Probe, Recorder, StepRecord};
    let _serial = AUDIT_LOCK.lock().unwrap();
    let feed = |probe: &dyn Probe, steps: usize| {
        thread_allocs_during(|| {
            for step in 0..steps {
                let t = [step as f64; 4];
                probe.on_step(&StepRecord {
                    step,
                    barrier: Some(1),
                    starts: &t,
                    compute_done: &t,
                    send_done: &t,
                    finish: &t,
                    releases: &t,
                    words_by_level: &[0, 4],
                    messages_by_level: &[0, 4],
                    hrelation: 1.0,
                    work: &t,
                    sent_words: &[1; 4],
                    wall: None,
                });
            }
        })
    };
    let flight = FlightRecorder::with_capacity(16);
    let bounded = Recorder::new().keep_last(16);
    let everything = Recorder::new();
    for recorder in [&*flight, &bounded, &everything] {
        recorder.arm(4, 2);
    }
    assert_eq!(feed(&flight, 900), 0, "armed flight ring");
    assert_eq!(feed(&bounded, 900), 0, "armed keep_last ring");
    // Six segments of 174 steps hold the 900: five after the armed
    // one, and the segment list grows once, from 4 entries to 8.
    assert_eq!(feed(&everything, 900), 5 + 1, "keep-everything store");
    assert_eq!(everything.recorded(), 900);
}

/// The two engines agree bit-for-bit on the audited program — the SoA
/// delivery path preserves ordering exactly.
#[expect(clippy::disallowed_methods, reason = "audits the engines themselves")]
#[test]
fn audited_program_is_bit_identical_across_engines() {
    let _serial = AUDIT_LOCK.lock().unwrap();
    let tree = machine();
    for k in [1usize, 8] {
        let prog = Ring { k };
        let (sim, sim_states) = Simulator::new(Arc::clone(&tree))
            .run_with_states(&prog)
            .unwrap();
        let (thr, thr_states) = ThreadedRuntime::new(Arc::clone(&tree))
            .run_with_states(&prog)
            .unwrap();
        assert_eq!(sim_states, thr_states, "k={k}");
        assert_eq!(sim.total_time, thr.virtual_outcome.total_time, "k={k}");
    }
}

/// The compiled schedule program's wire path: a payload goes from the
/// sender's store into the engine's outbox arena with no intermediate
/// buffer, so a processor that only sends allocates nothing once the
/// arena has grown — a flat broadcast costs its root the same zero
/// allocations to 7 receivers as to 1 — and a receiver allocates once
/// per unit it stores (plus, per bundle, the list of its pieces).
#[test]
fn schedule_program_posts_in_place_and_stores_one_vector_per_unit() {
    use hbsp_collectives::schedule::{
        CommSchedule, ProcInit, Role, ScheduleProgram, ScheduleStep, Transfer, UnitId,
    };
    const UNIT: u32 = 4096;
    // Held to stay out of the other audits' process-wide windows.
    let _serial = AUDIT_LOCK.lock().unwrap();
    let tree = Arc::new(TreeBuilder::homogeneous(1.0, 10.0, 8).unwrap());
    let env = |j: u32| ProcEnv {
        pid: ProcId(j),
        nprocs: 8,
        tree: Arc::clone(&tree),
    };

    // P0 holds `units` units and sends `role_of(units)` to P1..=fanout;
    // returns (allocations of P0's send step, of P1's receive step).
    let run = |fanout: u32, units: u32, bundle: bool| {
        let ids: Vec<UnitId> = (0..units).map(|i| UnitId::new(i * UNIT, UNIT)).collect();
        let mut step = ScheduleStep::at(SyncScope::global(&tree));
        for dst in 1..=fanout {
            step.transfers.push(Transfer {
                src: ProcId(0),
                dst: ProcId(dst),
                words: (units * UNIT) as u64,
                role: if bundle {
                    Role::Bundle(ids.clone())
                } else {
                    Role::Piece(ids[0])
                },
            });
        }
        let mut sched = CommSchedule::new();
        sched.push(step);
        sched.push(ScheduleStep::drain());
        let mut init = vec![ProcInit::default(); 8];
        init[0].units = ids.iter().map(|&id| (id, vec![7; UNIT as usize])).collect();
        let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(init), None);

        let mut root = Wire::new(ProcId(0));
        // Grown in advance, as an engine's outbox is after its first steps.
        root.outbox = hbsp_core::MsgBatch::with_capacity(
            8,
            8 * 4 * (2 + units as usize * (UNIT as usize + 2)),
        );
        let mut root_state = prog.init(&env(0));
        let sent = thread_allocs_during(|| prog.step(0, &env(0), &mut root_state, &mut root));
        assert_eq!(
            root.outbox.len(),
            fanout as usize,
            "every transfer was posted"
        );

        let mut leaf = Wire::new(ProcId(1));
        let posted = root.outbox.get(0);
        leaf.receive(posted.src, posted.tag, posted.payload);
        let mut leaf_state = prog.init(&env(1));
        let stored = thread_allocs_during(|| prog.step(1, &env(1), &mut leaf_state, &mut leaf));
        assert_eq!(
            leaf_state.pieces().len(),
            units as usize,
            "every unit arrived"
        );
        (sent, stored)
    };

    for (fanout, units, bundle) in [(1, 1, false), (7, 1, false), (1, 8, true), (7, 8, true)] {
        let (sent, _) = run(fanout, units, bundle);
        assert_eq!(
            sent, 0,
            "root posting {units} unit(s) to {fanout} receiver(s) allocated {sent} times"
        );
    }
    let (_, one) = run(1, 1, true);
    let (_, eight) = run(1, 8, true);
    assert!(
        eight <= one + 7 + 1,
        "storing 8 units took {eight} allocations vs {one} for 1 — more than one per \
         extra unit (and a store node) means a second copy is back on the receive path"
    );
}

/// Every processor sends `msgs` messages of `msg_bytes` around a ring
/// for a few supersteps: 4 × `msgs` × `msg_bytes` into the step's arena,
/// each receiver reading a quarter of it in place.
struct Bulk {
    msgs: usize,
    msg_bytes: usize,
}

impl SpmdProgram for Bulk {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest = digest
                .wrapping_mul(31)
                .wrapping_add(m.tag as u64 + m.payload[m.payload.len() / 2] as u64);
        }
        if step == 6 {
            return StepOutcome::Done;
        }
        let next = ProcId(((env.pid.rank() + 1) % env.nprocs) as u32);
        for i in 0..self.msgs {
            ctx.send_with(&[next], i as u32, self.msg_bytes, &mut |w| {
                fill(w, self.msg_bytes, step as u8 + 1)
            });
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

const KIB: usize = 1024;

/// An executor keeps its engine, and the engine one arena, its row
/// lists and its per-step vectors, so only an executor's first run grows
/// them: a later run allocates less often than the first did, exactly
/// as often as every other later run, and — with 1 MiB or 8 MiB
/// delivered per superstep — not once more for the bytes, because the
/// arena it builds per run has room for twice the kept one's.
/// (`MsgBatch` growth is a `realloc` per doubling, which the counter
/// sees; an engine rebuilt per run allocates the same in every run.)
#[test]
fn warm_executor_allocations_do_not_depend_on_payload_bytes() {
    let _serial = AUDIT_LOCK.lock().unwrap();
    let runs = |msg_bytes: usize| {
        let exec = Executor::simulator(machine());
        let prog = Bulk {
            msgs: 64,
            msg_bytes,
        };
        let cold = thread_allocs_during(|| exec.run(&prog).unwrap());
        let (_, states) = exec.run(&prog).unwrap();
        assert!(states.iter().all(|&d| d != 0), "program really ran");
        let warm = [(); 3].map(|()| thread_allocs_during(|| exec.run(&prog).unwrap()));
        (cold, warm)
    };
    let (cold, small) = runs(4 * KIB);
    let (_, large) = runs(32 * KIB);
    assert_eq!(small, [small[0]; 3], "every later run allocates alike");
    assert!(
        small[0] < cold,
        "a later run allocated {} times, the first {cold}: nothing was kept",
        small[0]
    );
    assert_eq!(
        small, large,
        "later runs at 1 MiB/step vs at 8 MiB/step: the allocation count moves with the bytes"
    );
}

/// What a warm simulator builds per run for the messages is the other
/// arena of its double buffer — a byte table and a row table, two
/// allocations with room for twice the kept arena's — and nothing else:
/// a warm run of a program whose ranks post 64 × 4 KiB a step (to
/// themselves, so the shared analysis' h-relation stays empty)
/// allocates exactly twice more than a warm run of the same program
/// posting nothing.
#[expect(clippy::disallowed_methods, reason = "audits the engines themselves")]
#[test]
fn a_warm_simulator_run_allocates_only_the_per_run_arena() {
    /// Every rank posts `msgs` messages to itself for six supersteps.
    struct Echo {
        msgs: usize,
    }
    impl SpmdProgram for Echo {
        type State = usize;
        fn init(&self, _env: &ProcEnv) -> usize {
            0
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            read: &mut usize,
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            *read += ctx
                .messages()
                .iter()
                .map(|m| m.payload.len())
                .sum::<usize>();
            if step == 6 {
                return StepOutcome::Done;
            }
            for i in 0..self.msgs {
                ctx.send_with(&[env.pid], i as u32, 4 * KIB, &mut |w| fill(w, 4 * KIB, 1));
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
    let _serial = AUDIT_LOCK.lock().unwrap();
    let warm = |msgs: usize| {
        let sim = Simulator::new(machine());
        let (_, read) = sim.run_with_states(&Echo { msgs }).unwrap();
        assert_eq!(
            read,
            vec![6 * msgs * 4 * KIB; 4],
            "every rank read its posts"
        );
        thread_allocs_during(|| sim.run(&Echo { msgs }).unwrap())
    };
    let (silent, posting) = (warm(0), warm(64));
    assert_eq!(
        posting,
        silent + 2,
        "a warm run posting 1 MiB a step allocated {posting} times, one posting nothing \
         {silent}: more than the per-run arena's two tables is built per run"
    );
}

/// A threaded runtime keeps its processor threads: the first run spawns
/// them (allocating on the caller's thread for each), a later run only
/// wakes them, so on the caller's thread runs 2..N of an empty program
/// allocate alike — the per-run barrier, slots, outboxes and result
/// vector, nothing per dispatch that grows — and less than the first.
#[expect(clippy::disallowed_methods, reason = "audits the engines themselves")]
#[test]
fn pooled_runs_allocate_alike_and_less_than_the_first() {
    struct Empty;
    impl SpmdProgram for Empty {
        type State = ();
        fn init(&self, _env: &ProcEnv) {}
        fn step(
            &self,
            _s: usize,
            _e: &ProcEnv,
            _st: &mut (),
            _c: &mut dyn SpmdContext,
        ) -> StepOutcome {
            StepOutcome::Done
        }
    }
    let _serial = AUDIT_LOCK.lock().unwrap();
    let rt = ThreadedRuntime::new(machine());
    let first = thread_allocs_during(|| rt.run(&Empty).unwrap());
    let later = [(); 5].map(|()| thread_allocs_during(|| rt.run(&Empty).unwrap()));
    assert_eq!(later, [later[0]; 5], "every later run allocates alike");
    assert!(
        later[0] < first,
        "a later run allocated {} times on its caller's thread, the first {first}: \
         the threads were spawned again",
        later[0]
    );
}

/// The same property read off the kernel: growing an arena faults its
/// pages in. One processor at a time sends 1 MiB to the next, so a run
/// needs two 1 MiB arenas, the double buffer: the kept one is faulted in
/// by an executor's first run only, the per-run one at worst in every
/// run — so no later run faults as much as one and a half arenas, where
/// an engine that kept nothing would fault two whenever the allocator
/// hands it fresh pages. (Whether it does is the allocator's business:
/// once glibc has seen a large block freed, the per-run arena comes back
/// already faulted and later runs fault nothing, and a heap other tests
/// of this binary left behind can hand the first run faulted pages too —
/// so the bound is in arenas, not a share of the first run.) Minor
/// faults of this thread only — the simulator runs programs on its
/// caller's — so nothing another test's thread does is counted, and a
/// count, so a busy host does not move it.
#[cfg(target_os = "linux")]
#[test]
fn warm_executor_runs_fault_at_most_the_per_run_arena() {
    struct Token;
    impl SpmdProgram for Token {
        type State = u64;
        fn init(&self, _env: &ProcEnv) -> u64 {
            0
        }
        fn step(
            &self,
            step: usize,
            env: &ProcEnv,
            digest: &mut u64,
            ctx: &mut dyn SpmdContext,
        ) -> StepOutcome {
            for m in ctx.messages() {
                *digest += m.payload[m.payload.len() / 2] as u64;
            }
            if step == 8 {
                return StepOutcome::Done;
            }
            if env.pid.rank() == step % env.nprocs {
                let next = ProcId(((env.pid.rank() + 1) % env.nprocs) as u32);
                ctx.send_with(&[next], 0, 1024 * KIB, &mut |w| {
                    fill(w, 1024 * KIB, step as u8 + 1)
                });
            }
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
    /// `minflt`: the tenth field of `stat`, the eighth after the
    /// parenthesised command name.
    fn minor_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").unwrap();
        let mut after_comm = stat[stat.rfind(')').unwrap() + 1..].split_whitespace();
        after_comm.nth(7).unwrap().parse().unwrap()
    }
    /// Pages in one 1 MiB arena: the first `KernelPageSize` of smaps.
    fn arena_pages() -> u64 {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let line = smaps
            .lines()
            .find_map(|l| l.strip_prefix("KernelPageSize:"));
        let kib: u64 = line
            .unwrap()
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .unwrap();
        1024 / kib
    }
    let _serial = AUDIT_LOCK.lock().unwrap();
    let exec = Executor::simulator(machine());
    let mut faults = [0u64; 20];
    for f in &mut faults {
        let before = minor_faults();
        std::hint::black_box(exec.run(&Token).unwrap());
        *f = minor_faults() - before;
    }
    let arena = arena_pages();
    assert!(
        faults[1..].iter().all(|&f| 2 * f < 3 * arena),
        "a later run faulted one and a half {arena}-page arenas or more: {faults:?}"
    );
}

/// The apps send from their inputs and read their messages in place:
/// the root writes each rank's rows or share once, straight into its
/// outbox, and a receiver multiplies or merges from the payload. So on
/// a warm executor a matvec of `4n` rows, or a sample sort of `4n`
/// items, allocates as often as one of `n`, on both engines — a copy
/// per row or per item would multiply with the input. And a stencil of
/// `4n` iterations allocates as often as one of `n`: neither its sweep
/// nor the engine's settlement allocates per superstep.
#[test]
fn warm_apps_allocate_alike_at_four_times_the_input() {
    use hbsp_apps::{matvec::MatVec, sort::SampleSort, stencil::Stencil};
    use hbsp_collectives::plan::WorkloadPolicy;
    const SLACK: usize = 16;
    let _serial = AUDIT_LOCK.lock().unwrap();
    let matvec = |n: usize| {
        let m = 64;
        let a = (0..n * m).map(|i| (i % 7) as f64).collect();
        let x = (0..m).map(|i| i as f64).collect();
        MatVec::new(Arc::new(a), Arc::new(x), n, m, WorkloadPolicy::Balanced)
    };
    let sort = |n: u32| {
        let items = (0..n).map(|i| i.wrapping_mul(2_654_435_761)).collect();
        SampleSort::new(Arc::new(items), WorkloadPolicy::Balanced)
    };
    let stencil = |iterations: usize| {
        let field = (0..1000).map(|i| (i % 11) as f64).collect();
        Stencil::new(Arc::new(field), iterations, WorkloadPolicy::Balanced)
    };
    for engine in [Executor::simulator, Executor::threads] {
        let exec = engine(machine());
        let name = exec.engine_name();
        let (small, large) = (matvec(200), matvec(800));
        exec.run(&large).unwrap();
        let (a1, (_, states)) = allocs_during(|| exec.run(&small).unwrap());
        assert_eq!(states.iter().map(|s| s.y.len()).sum::<usize>(), 200);
        let (a4, _) = allocs_during(|| exec.run(&large).unwrap());
        assert!(
            a4.abs_diff(a1) <= SLACK,
            "{name}: matvec of 800 rows allocated {a4} times, of 200 rows {a1}"
        );
        let (small, large) = (sort(20_000), sort(80_000));
        exec.run(&large).unwrap();
        let (a1, (_, states)) = allocs_during(|| exec.run(&small).unwrap());
        assert_eq!(states.iter().map(|s| s.bucket.len()).sum::<usize>(), 20_000);
        let (a4, _) = allocs_during(|| exec.run(&large).unwrap());
        assert!(
            a4.abs_diff(a1) <= SLACK,
            "{name}: sort of 80000 items allocated {a4} times, of 20000 {a1}"
        );
        let (small, large) = (stencil(10), stencil(40));
        exec.run(&large).unwrap();
        let (a1, (_, states)) = allocs_during(|| exec.run(&small).unwrap());
        assert_eq!(states.iter().map(|s| s.cells.len()).sum::<usize>(), 998);
        let (a4, _) = allocs_during(|| exec.run(&large).unwrap());
        assert!(
            a4.abs_diff(a1) <= SLACK,
            "{name}: stencil of 40 iterations allocated {a4} times, of 10 {a1}"
        );
    }
}
