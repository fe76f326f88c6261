//! The five workloads: set-up, one op, and the check of its output.
//!
//! An op is timed part by part (one collective, one drain, one
//! application); checking a part's output happens between parts and is
//! not part of the op's time. Every part runs inside a root span with
//! one child span per call into a layer, so a traced run can say where
//! the part's time went.

use crate::api::{self, Engine, Executor, Job, Kind, MachineTree, SchedReport, KINDS};
use crate::gen::{self, AppSizes, CollInputs, CollSizes};
use crate::oracle;
use crate::trace::Tracer;
use std::sync::Arc;

/// Workload names with the reason each exists (also in `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "coll_threads_1000kb",
        "seven collectives at 1000 KB on campus (p=8), threaded runtime: data-plane bound",
    ),
    (
        "coll_sim_1000kb",
        "the same seven programs on the simulator: moves with interpreter/codec, not with runtime",
    ),
    (
        "sched_drain_sim",
        "1000-job DAG on grid3 (p=9), simulator: control-plane bound (carve, best_plan, merge)",
    ),
    (
        "sched_drain_threads",
        "the same drain on threads: latency-bound use of the runtime (spawn/join, small messages)",
    ),
    (
        "apps_threads",
        "sample sort, matvec and Jacobi on threads: compute-bound programs that bypass CommSchedule",
    ),
];

/// Warm-up ops at the end of every set-up.
const WARMUP_OPS: usize = 5;

/// Accepted relative error of floating-point application results: the
/// library may reorder a sum, it may not lose a term.
const F64_TOLERANCE: f64 = 1e-9;

pub struct OpOutcome {
    /// Summed wall time of the op's parts.
    pub wall_ns: u64,
    /// Wall time of each part, in `parts` order.
    pub parts_ns: Vec<u64>,
    /// The paper's `T` for the op: summed over its parts.
    pub model_time: f64,
    /// Why the op failed, if it did.
    pub failure: Option<String>,
}

pub trait Workload {
    /// Run one op. With `full` the outputs are compared against the
    /// reference element by element, otherwise only their shapes are.
    fn op(&mut self, tr: &mut Tracer, full: bool) -> OpOutcome;
    /// One entry per part of an op: the per-layer metric the part's
    /// median time is reported as, if it has one.
    fn parts(&self) -> Vec<Option<&'static str>>;
    /// The engine the workload runs on.
    fn engine(&self) -> Engine;
    /// Exact counts from the most recent op, by metric name.
    fn counts(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Set a workload up: parse its machine, generate inputs and
/// references from `seed`, build executors, check that both engines
/// agree on every program, and run the warm-up ops.
pub fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let mut workload: Box<dyn Workload> = match name {
        "coll_threads_1000kb" => Box::new(Coll::setup(
            seed,
            Engine::Threads,
            campus()?,
            CollSizes::KB1000,
        )?),
        "coll_sim_1000kb" => Box::new(Coll::setup(
            seed,
            Engine::Sim,
            campus()?,
            CollSizes::KB1000,
        )?),
        "sched_drain_sim" => Box::new(Drain::setup(seed, Engine::Sim, grid3()?, &fixture_jobs()?)?),
        "sched_drain_threads" => Box::new(Drain::setup(
            seed,
            Engine::Threads,
            grid3()?,
            &fixture_jobs()?,
        )?),
        "apps_threads" => Box::new(Apps::setup(
            seed,
            Engine::Threads,
            campus()?,
            AppSizes::FULL,
        )?),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut tr = Tracer::new(false);
    let mut first_model_time = None;
    for i in 0..WARMUP_OPS {
        let out = workload.op(&mut tr, i == 0);
        if let Some(why) = out.failure {
            return Err(format!("warm-up op {i} failed: {why}"));
        }
        if *first_model_time.get_or_insert(out.model_time) != out.model_time {
            return Err(format!("warm-up op {i}: model time changed between ops"));
        }
    }
    Ok(workload)
}

pub fn campus() -> Result<Arc<MachineTree>, String> {
    api::parse_machine(&api::read_repo_file("machines/campus.hbsp")?)
}

pub fn grid3() -> Result<Arc<MachineTree>, String> {
    api::parse_machine(&api::read_repo_file("machines/grid3.hbsp")?)
}

pub fn fixture_jobs() -> Result<Vec<Job>, String> {
    api::parse_jobs(&api::read_repo_file("fixtures/jobs_1000.jobs")?)
}

fn fail(slot: &mut Option<String>, why: String) {
    slot.get_or_insert(why);
}

// ---------------------------------------------------------- collectives

pub struct Coll {
    tree: Arc<MachineTree>,
    engine: Engine,
    exec: Executor,
    inputs: CollInputs,
    reduce_ref: Vec<u32>,
    scan_ref: Vec<Vec<u32>>,
    alltoall_ref: Vec<Vec<u32>>,
}

/// Per-layer metric of each collective's median time, in `KINDS` order.
const KIND_METRICS: [&str; 7] = [
    "collectives.gather.op_ms_p50",
    "collectives.broadcast.op_ms_p50",
    "collectives.scatter.op_ms_p50",
    "collectives.allgather.op_ms_p50",
    "collectives.reduce.op_ms_p50",
    "collectives.scan.op_ms_p50",
    "collectives.alltoall.op_ms_p50",
];

/// Root span of each collective, in `KINDS` order.
const KIND_SPANS: [&str; 7] = [
    "gather",
    "broadcast",
    "scatter",
    "allgather",
    "reduce",
    "scan",
    "alltoall",
];

impl Coll {
    pub fn setup(
        seed: u64,
        engine: Engine,
        tree: Arc<MachineTree>,
        sizes: CollSizes,
    ) -> Result<Coll, String> {
        let inputs = gen::coll_inputs(seed, tree.num_procs(), sizes);
        let coll = Coll {
            engine,
            exec: api::executor(&tree, engine),
            reduce_ref: oracle::fold_sum(&inputs.vectors),
            scan_ref: oracle::prefix_sums(&inputs.vectors),
            alltoall_ref: oracle::transpose(&inputs.blocks),
            tree,
            inputs,
        };
        // Each program once on the other engine: final states and model
        // time must be bit-identical.
        let other = api::executor(&coll.tree, engine.other());
        for kind in KINDS {
            let plan = api::tune(&coll.tree, kind, api::size_hint(kind, sizes))?;
            let (prog, _) = api::stage(&coll.tree, plan, &coll.inputs);
            let here = api::execute(&coll.exec, &prog)?;
            let there = api::execute(&other, &prog)?;
            if here.model_time != there.model_time || here.states != there.states {
                return Err(format!("{}: the engines disagree", api::kind_name(kind)));
            }
        }
        Ok(coll)
    }

    /// What `api::extract` must return for `meta.kind`.
    fn reference(&self, meta: api::PlanMeta, every_rank: bool) -> Vec<Vec<u32>> {
        let items = &self.inputs.items;
        let ranges = || api::share_ranges(&self.tree, items.len(), meta.workload);
        let ranks = if every_rank { self.tree.num_procs() } else { 1 };
        match meta.kind {
            Kind::Gather => {
                let shares: Vec<&[u32]> = ranges().into_iter().map(|r| &items[r]).collect();
                vec![oracle::concat(&shares)]
            }
            Kind::Broadcast | Kind::Allgather => oracle::copies(items, ranks),
            Kind::Scatter => oracle::split(items, &ranges()),
            Kind::Reduce => vec![self.reduce_ref.clone()],
            Kind::Scan => self.scan_ref.clone(),
            Kind::Alltoall => self.alltoall_ref.clone(),
        }
    }

    /// The lengths of [`Coll::reference`]'s vectors, without building
    /// them: the check every op gets.
    fn reference_lens(&self, meta: api::PlanMeta) -> Vec<usize> {
        let sizes = self.inputs.sizes;
        let p = self.tree.num_procs();
        match meta.kind {
            Kind::Gather | Kind::Broadcast | Kind::Allgather => vec![sizes.n],
            Kind::Scatter => api::share_ranges(&self.tree, sizes.n, meta.workload)
                .iter()
                .map(|r| r.len())
                .collect(),
            Kind::Reduce => vec![sizes.veclen],
            Kind::Scan => vec![sizes.veclen; p],
            Kind::Alltoall => vec![(p - 1) * sizes.block; p],
        }
    }
}

#[cfg(test)]
impl Coll {
    /// Make the reduce reference wrong in one element.
    pub fn corrupt_reference(&mut self) {
        self.reduce_ref[0] ^= 1;
    }
}

impl Workload for Coll {
    fn op(&mut self, tr: &mut Tracer, full: bool) -> OpOutcome {
        let sizes = self.inputs.sizes;
        let mut out = OpOutcome {
            wall_ns: 0,
            parts_ns: Vec::with_capacity(KINDS.len()),
            model_time: 0.0,
            failure: None,
        };
        for (kind, span) in KINDS.into_iter().zip(KIND_SPANS) {
            let (ran, ns) = tr.timed(span, |tr| {
                let plan = tr.span("collectives.tune", |_| {
                    api::tune(&self.tree, kind, api::size_hint(kind, sizes))
                })?;
                let (prog, meta) = tr.span("collectives.stage", |_| {
                    api::stage(&self.tree, plan, &self.inputs)
                });
                let ran = tr.span("hbsplib.execute", |_| api::execute(&self.exec, &prog))?;
                let result = tr.span("collectives.extract", |_| {
                    api::extract(&self.tree, meta, sizes, &ran.states, false)
                });
                // The program and the states are handed out so that
                // freeing them is not timed as part of the collective.
                Ok::<_, String>((prog, meta, ran, result))
            });
            out.wall_ns += ns;
            out.parts_ns.push(ns);
            let (_prog, meta, ran, result) = match ran {
                Ok(ran) => ran,
                Err(why) => {
                    fail(&mut out.failure, format!("{span}: {why}"));
                    continue;
                }
            };
            out.model_time += ran.model_time;
            let same = if full {
                result == self.reference(meta, false)
            } else {
                result.iter().map(Vec::len).eq(self.reference_lens(meta))
            };
            if !same {
                fail(
                    &mut out.failure,
                    format!("{span}: output differs from the reference"),
                );
            }
            if full && matches!(kind, Kind::Broadcast | Kind::Allgather) {
                let everywhere = api::extract(&self.tree, meta, sizes, &ran.states, true);
                if everywhere != self.reference(meta, true) {
                    fail(
                        &mut out.failure,
                        format!("{span}: some rank lacks the full array"),
                    );
                }
            }
        }
        out
    }

    fn parts(&self) -> Vec<Option<&'static str>> {
        KIND_METRICS.map(Some).to_vec()
    }

    fn engine(&self) -> Engine {
        self.engine
    }
}

// ---------------------------------------------------------------- drains

pub struct Drain {
    tree: Arc<MachineTree>,
    engine: Engine,
    jobs: Vec<Job>,
    /// The same drain on the other engine: the reference every op's job
    /// outcomes are compared against.
    reference: SchedReport,
    last_batches: usize,
}

impl Drain {
    pub fn setup(
        seed: u64,
        engine: Engine,
        tree: Arc<MachineTree>,
        fixture: &[Job],
    ) -> Result<Drain, String> {
        let jobs: Vec<Job> = fixture
            .iter()
            .enumerate()
            .map(|(i, job)| {
                let mut job = job.clone();
                job.seed = gen::job_seed(seed, job.seed, i);
                job
            })
            .collect();
        let reference = api::scheduler_run(&api::scheduler_with(&tree, &jobs), engine.other())?;
        if !reference.clean() {
            return Err("reference drain left a decode error".to_string());
        }
        Ok(Drain {
            tree,
            engine,
            jobs,
            reference,
            last_batches: 0,
        })
    }
}

impl Workload for Drain {
    fn op(&mut self, tr: &mut Tracer, _full: bool) -> OpOutcome {
        let (report, ns) = tr.timed("drain", |tr| {
            let sched = tr.span("sched.submit", |_| {
                api::scheduler_with(&self.tree, &self.jobs)
            });
            tr.span("sched.run", |_| api::scheduler_run(&sched, self.engine))
        });
        let mut out = OpOutcome {
            wall_ns: ns,
            parts_ns: vec![ns],
            model_time: 0.0,
            failure: None,
        };
        match report {
            Err(why) => out.failure = Some(why),
            Ok(report) => {
                out.model_time = report.total_time;
                self.last_batches = report.batches.len();
                // Job states are a few dozen words each, so the full
                // comparison is cheap enough for every op.
                if !report.clean() {
                    out.failure = Some("a job ended with a decode error".to_string());
                } else if report.batches.len() != self.reference.batches.len()
                    || report.total_time != self.reference.total_time
                    || !api::same_job_outcomes(&report, &self.reference)
                {
                    out.failure = Some("drain differs from the other engine's".to_string());
                }
            }
        }
        out
    }

    fn parts(&self) -> Vec<Option<&'static str>> {
        vec![None]
    }

    fn engine(&self) -> Engine {
        self.engine
    }

    fn counts(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sched.batches", self.last_batches as f64),
            (
                "sched.jobs_per_batch",
                self.jobs.len() as f64 / self.last_batches.max(1) as f64,
            ),
        ]
    }
}

// ----------------------------------------------------------------- apps

pub struct Apps {
    tree: Arc<MachineTree>,
    engine: Engine,
    exec: Executor,
    programs: api::AppPrograms,
    sorted_ref: Vec<u32>,
    y_ref: Vec<f64>,
    field_ref: Vec<f64>,
}

/// The results of one pass over the three applications.
struct AppResults {
    model_times: [f64; 3],
    sorted: Vec<u32>,
    y: Vec<f64>,
    field: Vec<f64>,
}

/// One application as a part: construct the program, run it, read the
/// result, each under its own span.
fn app_part<P, S, T>(
    tr: &mut Tracer,
    name: &'static str,
    construct: impl FnOnce() -> P,
    run: impl FnOnce(&P) -> Result<(f64, Vec<S>), String>,
    extract: impl FnOnce(Vec<S>) -> Vec<T>,
) -> (Result<(f64, Vec<T>), String>, u64) {
    tr.timed(name, |tr| {
        let prog = tr.span("apps.construct", |_| construct());
        let (model_time, states) = tr.span("hbsplib.run", |_| run(&prog))?;
        Ok((model_time, tr.span("apps.extract", |_| extract(states))))
    })
}

/// Run the three applications on `exec`, timing each as a part.
fn run_apps(
    tree: &MachineTree,
    exec: &Executor,
    programs: &api::AppPrograms,
    tr: &mut Tracer,
) -> (Result<AppResults, String>, [u64; 3]) {
    let (sort, t_sort) = app_part(
        tr,
        "sort",
        || api::sort_program(programs),
        |p| api::run_states(exec, p),
        api::sort_result,
    );
    let (matvec, t_matvec) = app_part(
        tr,
        "matvec",
        || api::matvec_program(programs),
        |p| api::run_states(exec, p),
        |states| api::matvec_result(tree, states),
    );
    let (stencil, t_stencil) = app_part(
        tr,
        "stencil",
        || api::stencil_program(programs),
        |p| api::run_states(exec, p),
        |states| api::stencil_result(tree, states),
    );
    let results = (|| {
        let ((t0, sorted), (t1, y), (t2, field)) = (sort?, matvec?, stencil?);
        Ok(AppResults {
            model_times: [t0, t1, t2],
            sorted,
            y,
            field,
        })
    })();
    (results, [t_sort, t_matvec, t_stencil])
}

impl Apps {
    pub fn setup(
        seed: u64,
        engine: Engine,
        tree: Arc<MachineTree>,
        sizes: AppSizes,
    ) -> Result<Apps, String> {
        let inputs = gen::app_inputs(seed, sizes);
        let n = sizes.matvec_n;
        let apps = Apps {
            engine,
            exec: api::executor(&tree, engine),
            programs: api::AppPrograms::new(&inputs, sizes),
            sorted_ref: oracle::sorted(&inputs.sort_items),
            y_ref: oracle::matvec(&inputs.matrix, &inputs.x, n, n),
            field_ref: api::jacobi_reference(&inputs.field, sizes.stencil_iters),
            tree,
        };
        let mut tr = Tracer::new(false);
        let other = api::executor(&apps.tree, engine.other());
        let here = run_apps(&apps.tree, &apps.exec, &apps.programs, &mut tr).0?;
        let there = run_apps(&apps.tree, &other, &apps.programs, &mut tr).0?;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        if here.model_times != there.model_times
            || here.sorted != there.sorted
            || bits(&here.y) != bits(&there.y)
            || bits(&here.field) != bits(&there.field)
        {
            return Err("the engines disagree on an application".to_string());
        }
        Ok(apps)
    }
}

impl Workload for Apps {
    fn op(&mut self, tr: &mut Tracer, full: bool) -> OpOutcome {
        let (results, ns) = run_apps(&self.tree, &self.exec, &self.programs, tr);
        let mut out = OpOutcome {
            wall_ns: ns.iter().sum(),
            parts_ns: ns.to_vec(),
            model_time: 0.0,
            failure: None,
        };
        match results {
            Err(why) => out.failure = Some(why),
            Ok(got) => {
                out.model_time = got.model_times.iter().sum();
                let same = if full {
                    got.sorted == self.sorted_ref
                        && oracle::max_rel_diff(&got.y, &self.y_ref) <= F64_TOLERANCE
                        && oracle::max_rel_diff(&got.field, &self.field_ref) <= F64_TOLERANCE
                } else {
                    got.sorted.len() == self.sorted_ref.len()
                        && got.y.len() == self.y_ref.len()
                        && got.field.len() == self.field_ref.len()
                };
                if !same {
                    out.failure = Some("an application's output differs from the reference".into());
                }
            }
        }
        out
    }

    fn parts(&self) -> Vec<Option<&'static str>> {
        vec![
            Some("apps.sort.op_ms_p50"),
            Some("apps.matvec.op_ms_p50"),
            Some("apps.stencil.op_ms_p50"),
        ]
    }

    fn engine(&self) -> Engine {
        self.engine
    }
}
