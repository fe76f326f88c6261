//! The per-layer micro-suite: direct calls into one layer at a time,
//! with fixed inputs, timed from outside.
//!
//! Every number is the median of repeated samples taken within a time
//! slice, so the suite fits the traced run's budget whatever the host.
//! These metrics carry no bound; they exist to say which layer moved
//! when an end-to-end metric does.

use crate::api::{self, Barrier, Engine, ProbeKind, KINDS};
use crate::gen::{self, AppSizes, CollSizes};
use crate::oracle;
use crate::stats::median;
use crate::workloads;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fixed seed of the suite's inputs: the micro-benchmarks measure the
/// code, not the data.
const SEED: u64 = 1;
const MIN_SAMPLES: usize = 3;
/// Empty supersteps per run in the engine-overhead rows.
const SPIN_STEPS: usize = 200;

/// Median of the samples `f` yields during `slice` (at least
/// `MIN_SAMPLES`).
fn sample(slice: Duration, mut f: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_SAMPLES || start.elapsed() < slice {
        samples.push(f());
    }
    median(&samples)
}

/// Wall nanoseconds of one call of `f`, whose result is kept from the
/// optimiser and dropped inside the timed region.
fn ns<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

/// Median wall nanoseconds of one call of `f`, sampled during `slice`.
fn timed<R>(slice: Duration, mut f: impl FnMut() -> R) -> f64 {
    sample(slice, || ns(&mut f))
}

/// Ratio of the medians of two alternately sampled measurements
/// (`with ÷ without`), so drift lands on both sides.
fn ratio(slice: Duration, mut with: impl FnMut() -> f64, mut without: impl FnMut() -> f64) -> f64 {
    let start = Instant::now();
    let (mut a, mut b) = (Vec::new(), Vec::new());
    while a.len() < MIN_SAMPLES || start.elapsed() < slice {
        a.push(with());
        b.push(without());
    }
    median(&a) / median(&b)
}

/// MB/s of moving `bytes` in `ns` nanoseconds.
fn mb_per_s(bytes: f64, ns: f64) -> f64 {
    bytes / 1e6 / (ns / 1e9)
}

/// The seven staged collective programs of one sweep with their raw
/// replays.
struct Sweep {
    programs: Vec<api::StagedProgram>,
    replays: Vec<api::Replay>,
}

impl Sweep {
    fn new(tree: &Arc<api::MachineTree>, sizes: CollSizes) -> Result<Sweep, String> {
        let inputs = gen::coll_inputs(SEED, tree.num_procs(), sizes);
        let mut programs = Vec::new();
        let mut replays = Vec::new();
        for kind in KINDS {
            let plan = api::tune(tree, kind, api::size_hint(kind, sizes))?;
            replays.push(api::Replay::of(&plan.schedule, tree.num_procs()));
            programs.push(api::stage(tree, plan, &inputs).0);
        }
        Ok(Sweep { programs, replays })
    }

    fn wire_bytes(&self) -> f64 {
        self.replays.iter().map(|r| r.wire_bytes).sum::<u64>() as f64
    }

    fn steps(&self) -> f64 {
        self.replays.iter().map(|r| r.num_steps()).sum::<usize>() as f64
    }

    /// Nanoseconds of replaying the whole sweep's traffic on `exec`.
    fn replay_ns(&self, exec: &api::Executor) -> f64 {
        ns(|| {
            for r in &self.replays {
                black_box(api::run_states(exec, r).expect("replay runs"));
            }
        })
    }

    /// Nanoseconds of executing the whole sweep's programs on `exec`.
    fn execute_ns(&self, exec: &api::Executor) -> f64 {
        ns(|| {
            for p in &self.programs {
                black_box(api::execute(exec, p).expect("sweep executes").model_time);
            }
        })
    }
}

pub struct Suite {
    /// `(metric, value)` of every micro-suite metric.
    pub metrics: Vec<(&'static str, f64)>,
    /// Wall time of replaying the 1000 KB sweep's raw traffic on each
    /// engine: what `collectives.interpreter_gap_ms.*` is taken against.
    pub replay_sweep_ms_threads: f64,
    pub replay_sweep_ms_sim: f64,
}

/// Run the suite within roughly `budget`.
pub fn run(budget: Duration) -> Result<Suite, String> {
    // About sixty sampled measurements share the budget.
    let slice = budget / 60;
    let mut out: Vec<(&'static str, f64)> = Vec::new();

    let grid3_text = api::read_repo_file("machines/grid3.hbsp")?;
    let jobs_text = api::read_repo_file("fixtures/jobs_1000.jobs")?;
    let faults_text = api::read_repo_file("fixtures/straggler_ramp.faults")?;
    let campus = workloads::campus()?;
    let grid3 = workloads::grid3()?;
    let jobs = workloads::fixture_jobs()?;
    let flat2 = api::flat_machine(2);
    let big = Sweep::new(&campus, CollSizes::KB1000)?;
    let small = Sweep::new(&campus, CollSizes::KB1)?;
    let items = gen::coll_inputs(SEED, 1, CollSizes::KB1000).items;
    let item_bytes = 4.0 * items.len() as f64;
    let threads = api::executor(&campus, Engine::Threads);
    let sim = api::executor(&campus, Engine::Sim);

    // core
    out.push((
        "core.topology_parse_us",
        timed(slice, || api::parse_machine(&grid3_text)) / 1e3,
    ));
    out.push((
        "core.carve_us",
        sample(slice, || {
            let mut nodes = 0;
            ns(|| nodes = api::carve_every_node(&grid3)) / nodes as f64
        }) / 1e3,
    ));
    out.push((
        "core.partition_balanced_us",
        timed(slice, || {
            api::partition_balanced(&campus, items.len() as u64)
        }) / 1e3,
    ));
    let payload = [0x5Au8; 64];
    out.push((
        "core.msgbatch_push_ns",
        timed(slice, || api::msgbatch_push(1000, &payload)) / 1000.0,
    ));
    let template = api::msgbatch_push(100, &payload);
    out.push((
        "core.msgbatch_append_ns",
        timed(slice, || api::msgbatch_append(&template, 100)) / (100.0 * 100.0),
    ));

    // sim
    out.push((
        "sim.time_queue_mops",
        sample(slice, || {
            let mut events = 0;
            let t = ns(|| events = api::time_queue_churn(10_000));
            events as f64 / t * 1e3
        }),
    ));
    let timing = api::timing_case(16);
    out.push((
        "sim.superstep_timing_us.p16",
        timed(slice, || api::superstep_timing_once(&timing)) / 1e3,
    ));
    let spin = &api::Spin { steps: SPIN_STEPS };
    let per_step = (SPIN_STEPS + 1) as f64;
    out.push((
        "sim.empty_superstep_ns.p8",
        timed(slice, || api::simulator_run(&campus, spin)) / per_step,
    ));
    let sim_replay_big_ns = sample(slice, || big.replay_ns(&sim));
    out.push((
        "sim.raw_hrel_1000kb_mb_per_s",
        mb_per_s(big.wire_bytes(), sim_replay_big_ns),
    ));
    out.push((
        "sim.raw_hrel_1kb_us_per_step",
        sample(slice, || small.replay_ns(&sim)) / small.steps() / 1e3,
    ));

    // runtime
    let spin_ns = |tree: &Arc<api::MachineTree>, barrier, flight| {
        let rt = api::threaded_runtime(tree, barrier, flight);
        move || api::runtime_run_ns(&rt, spin).expect("spin runs") as f64 / per_step
    };
    out.push((
        "runtime.empty_superstep_ns.p8.hier",
        sample(slice, spin_ns(&campus, Barrier::Hierarchical, false)),
    ));
    out.push((
        "runtime.empty_superstep_ns.p8.central",
        sample(slice, spin_ns(&campus, Barrier::Central, false)),
    ));
    out.push((
        "runtime.empty_superstep_ns.p2.hier",
        sample(slice, spin_ns(&flat2, Barrier::Hierarchical, false)),
    ));
    let nothing = &api::Spin { steps: 0 };
    let bare = api::threaded_runtime(&campus, Barrier::Hierarchical, false);
    out.push((
        "runtime.spawn_join_us.p8",
        timed(slice, || api::runtime_run_ns(&bare, nothing)) / 1e3,
    ));
    out.push((
        "runtime.mailbox_roundtrip_ns",
        timed(slice, || api::mailbox_roundtrips(1000, 8, &payload)) / 1000.0,
    ));
    out.push((
        "runtime.barrier_wait_ns.p2",
        sample(slice, || {
            api::barrier_crossings_ns(&flat2, 10_000) as f64 / 10_000.0
        }),
    ));
    let thr_replay_big_ns = sample(slice, || big.replay_ns(&threads));
    out.push((
        "runtime.raw_hrel_1000kb_mb_per_s",
        mb_per_s(big.wire_bytes(), thr_replay_big_ns),
    ));
    out.push((
        "runtime.raw_hrel_1kb_us_per_step",
        sample(slice, || small.replay_ns(&threads)) / small.steps() / 1e3,
    ));

    // hbsplib
    out.push((
        "hbsplib.codec_encode_mb_per_s",
        mb_per_s(item_bytes, timed(slice, || api::codec_encode(&items))),
    ));
    let encoded = api::codec_encode(&items);
    out.push((
        "hbsplib.codec_decode_mb_per_s",
        mb_per_s(item_bytes, timed(slice, || api::codec_decode(&encoded))),
    ));
    {
        // Executor::run minus ThreadedRuntime::run on a zero-step
        // program, sampled alternately.
        let start = Instant::now();
        let (mut through, mut direct) = (Vec::new(), Vec::new());
        while through.len() < MIN_SAMPLES || start.elapsed() < slice {
            through.push(ns(|| api::run_states(&threads, nothing)));
            direct.push(ns(|| api::runtime_run_ns(&bare, nothing)));
        }
        out.push((
            "hbsplib.executor_overhead_us",
            (median(&through) - median(&direct)) / 1e3,
        ));
    }
    out.push((
        "hbsplib.adaptive_run_ms",
        timed(slice, || {
            api::adaptive_broadcast(&campus, &faults_text, 256, 12)
        }) / 1e6,
    ));

    // collectives
    const BEST_PLAN: [&str; 7] = [
        "collectives.best_plan_us.gather",
        "collectives.best_plan_us.broadcast",
        "collectives.best_plan_us.scatter",
        "collectives.best_plan_us.allgather",
        "collectives.best_plan_us.reduce",
        "collectives.best_plan_us.scan",
        "collectives.best_plan_us.alltoall",
    ];
    for (kind, name) in KINDS.into_iter().zip(BEST_PLAN) {
        let hint = api::size_hint(kind, CollSizes::KB1000);
        out.push((name, timed(slice, || api::tune(&campus, kind, hint)) / 1e3));
    }
    let broadcast = api::tune(&campus, api::Kind::Broadcast, items.len() as u64)?;
    out.push((
        "collectives.predict_us",
        timed(slice, || api::predict_total(&campus, &broadcast.schedule)) / 1e3,
    ));
    out.push((
        "collectives.share_inits_ms",
        timed(slice, || api::share_inits_once(&campus, &items)) / 1e6,
    ));
    out.push((
        "collectives.piece_encode_mb_per_s",
        mb_per_s(item_bytes, timed(slice, || api::piece_encode(&items))),
    ));
    let piece = api::piece_encode(&items);
    out.push((
        "collectives.piece_decode_mb_per_s",
        mb_per_s(item_bytes, timed(slice, || api::piece_decode(&piece))),
    ));

    // check
    let case = api::check_case(&campus, items.len() as u64)?;
    out.push((
        "check.verify_schedule_us",
        timed(slice, || api::verify_schedule_once(&case)) / 1e3,
    ));
    out.push((
        "check.verify_dataflow_us",
        timed(slice, || api::verify_dataflow_once(&case)) / 1e3,
    ));
    out.push((
        "check.verify_dag_us",
        timed(slice, || api::verify_dag_of(&jobs)) / 1e3,
    ));
    out.push((
        "check.verify_standard_lowerings_ms",
        timed(slice, || api::verify_lowerings_once(&campus, 1000)) / 1e6,
    ));

    // sched
    out.push((
        "sched.price_fixture_ms",
        timed(slice, || api::price_fixture(&grid3, &jobs)) / 1e6,
    ));

    // obs
    out.push((
        "obs.flight_probe_ratio.p8",
        ratio(
            slice,
            spin_ns(&campus, Barrier::Hierarchical, true),
            spin_ns(&campus, Barrier::Hierarchical, false),
        ),
    ));
    for (name, probe) in [
        ("obs.flight_probe_ratio.coll", ProbeKind::Flight),
        ("obs.recorder_ratio.coll", ProbeKind::Recorder),
    ] {
        out.push((
            name,
            ratio(
                slice,
                // A fresh probe per sample, so the recorder's history
                // does not grow across samples.
                || big.execute_ns(&api::executor_with_probe(&campus, Engine::Threads, probe)),
                || big.execute_ns(&threads),
            ),
        ));
    }
    out.push((
        "obs.chrome_export_ms",
        sample(slice, || {
            api::chrome_export_ns(&campus, &big.programs[1]).expect("export runs") as f64
        }) / 1e6,
    ));

    // apps: single-thread baselines of the same problems
    let sizes = AppSizes::FULL;
    let app = gen::app_inputs(SEED, sizes);
    out.push((
        "apps.sort.seq_ms",
        timed(slice, || oracle::sorted(&app.sort_items)) / 1e6,
    ));
    out.push((
        "apps.matvec.seq_ms",
        timed(slice, || {
            oracle::matvec(&app.matrix, &app.x, sizes.matvec_n, sizes.matvec_n)
        }) / 1e6,
    ));
    out.push((
        "apps.stencil.seq_ms",
        timed(slice, || {
            api::jacobi_reference(&app.field, sizes.stencil_iters)
        }) / 1e6,
    ));

    // bench
    out.push((
        "bench.jobfile_parse_ms",
        timed(slice, || api::parse_jobs(&jobs_text)) / 1e6,
    ));

    // harness
    out.push((
        "harness.timer_ns",
        timed(slice, || {
            for _ in 0..1000 {
                black_box(Instant::now());
            }
        }) / 1000.0,
    ));
    Ok(Suite {
        metrics: out,
        replay_sweep_ms_threads: thr_replay_big_ns / 1e6,
        replay_sweep_ms_sim: sim_replay_big_ns / 1e6,
    })
}
