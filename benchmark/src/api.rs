//! Every call the benchmark makes into the library lives in this file.
//!
//! Later changes to the repository may not edit `benchmark/`, so the
//! items below are the surface they must keep source-compatible. The
//! rest of the harness sees the library only through this module.
//!
//! ```text
//! core         topology::parse, MachineTree::{carve, nodes, num_procs, fastest_proc,
//!              slowest_proc, subtree_leaves}, Partition::balanced_for, ProcId,
//!              MsgBatch::{new, push, append, clear, len}, SyncScope,
//!              SpmdProgram / SpmdContext / ProcEnv / StepOutcome (trait surface)
//! sim          Simulator::{new, run}, TimeQueue::{new, push, pop},
//!              timing::{superstep_timing, SendIntent}, NetConfig::pvm_like,
//!              FaultPlan::parse
//! runtime      ThreadedRuntime::{new, barrier, probe, run}, BarrierKind,
//!              HierBarrier::{new, wait}, Mailbox::{new, deposit_batch, take_into}
//! hbsplib      Executor::{simulator, threads, probe, faults, run}, ExecOutcome::total_time,
//!              codec::{encode_u32s, decode_u32s}, AdaptiveExecutor::{new, run}
//! collectives  tune::best_plan, PlanChoice, CollectiveKind, predict,
//!              schedule::{share_inits, ProcInit, ScheduleProgram, ScheduleState, execute,
//!              CommSchedule, Role, UnitId}, data::{partition_for, Piece}, reduce::ReduceOp,
//!              RepeatedCollective, verify::{schedule_view, holdings, verify_standard_lowerings}
//! check        verify_schedule, verify_dataflow, verify_dag
//! sched        Scheduler::{new, submit, run}, Job (pub fields), RunOptions, Engine,
//!              SchedReport::{clean, jobs, batches, total_time}, JobReport::states
//! obs          FlightRecorder::new, Recorder::{new, chrome_trace}, json::{escape, parse, Value}
//! apps         SampleSort::new, MatVec::new, Stencil::new, stencil::reference_jacobi,
//!              SortState::bucket, MatVecState::y, StencilState::result
//! bench        jobfile::{parse, validate}
//! ```

use crate::gen::{AppInputs, AppSizes, CollInputs, CollSizes};
use hbsp::apps::matvec::{MatVec, MatVecState};
use hbsp::apps::sort::{SampleSort, SortState};
use hbsp::apps::stencil::{reference_jacobi, Stencil, StencilState};
use hbsp::collectives::data::{partition_for, Piece};
use hbsp::collectives::reduce::ReduceOp;
use hbsp::collectives::schedule::{self, share_inits, ProcInit, ScheduleState};
use hbsp::collectives::verify::{holdings, schedule_view, verify_standard_lowerings};
use hbsp::collectives::{
    best_plan, predict, CollectiveKind, CommSchedule, PlanChoice, RepeatedCollective, Role,
    ScheduleProgram, UnitId, WorkloadPolicy,
};
use hbsp::core::{MsgBatch, Partition, ProcEnv, SpmdContext, SpmdProgram, StepOutcome, SyncScope};
use hbsp::lib::{codec, AdaptiveExecutor};
use hbsp::obs::{FlightRecorder, Probe, Recorder};
use hbsp::runtime::{BarrierKind, HierBarrier, Mailbox, ThreadedRuntime};
use hbsp::sched::{RunOptions, Scheduler};
use hbsp::sim::timing::{superstep_timing, SendIntent};
use hbsp::sim::{FaultPlan, NetConfig, Simulator, TimeQueue};
use std::hint::black_box;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::Arc;

pub use hbsp::collectives::ScheduleProgram as StagedProgram;
pub use hbsp::core::{MachineTree, ProcId};
pub use hbsp::lib::Executor;
pub use hbsp::obs::json::{escape as json_escape, parse as parse_json, Value as Json};
pub use hbsp::sched::{Job, SchedReport};

pub type Kind = CollectiveKind;

/// The seven collectives in sweep order.
pub const KINDS: [Kind; 7] = [
    Kind::Gather,
    Kind::Broadcast,
    Kind::Scatter,
    Kind::Allgather,
    Kind::Reduce,
    Kind::Scan,
    Kind::Alltoall,
];

pub fn kind_name(kind: Kind) -> &'static str {
    kind.name()
}

// ---------------------------------------------------------------- files

/// Root of the repository checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// A committed input file (`machines/…`, `fixtures/…`), by path
/// relative to the repository root.
pub fn read_repo_file(rel: &str) -> Result<String, String> {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

// ----------------------------------------------------------------- core

pub fn parse_machine(text: &str) -> Result<Arc<MachineTree>, String> {
    hbsp::core::topology::parse(text)
        .map(Arc::new)
        .map_err(|e| e.to_string())
}

/// Carve every node of `tree` into a standalone machine; returns the
/// number of nodes carved.
pub fn carve_every_node(tree: &MachineTree) -> usize {
    let mut carved = 0;
    for node in tree.nodes() {
        black_box(tree.carve(node.idx()));
        carved += 1;
    }
    carved
}

pub fn partition_balanced(tree: &MachineTree, n: u64) -> Partition {
    Partition::balanced_for(tree, n).expect("machine has processors")
}

/// Push `msgs` messages of `payload` into a fresh batch.
pub fn msgbatch_push(msgs: usize, payload: &[u8]) -> MsgBatch {
    let mut batch = MsgBatch::new();
    for i in 0..msgs {
        batch.push(ProcId(0), ProcId(1), i as u32, payload);
    }
    batch
}

/// Append `src` (refilled from `template` each round) onto one
/// gathering batch `rounds` times.
pub fn msgbatch_append(template: &MsgBatch, rounds: usize) {
    let mut gather = MsgBatch::new();
    for _ in 0..rounds {
        // A non-empty destination, so `append` copies instead of
        // taking the swap shortcut.
        gather.push(ProcId(0), ProcId(1), 0, &[0; 4]);
        let mut src = template.clone();
        gather.append(&mut src);
        black_box(gather.len());
        gather.clear();
    }
}

// ---------------------------------------------------------- collectives

/// The size hint `best_plan` takes for `kind`.
pub fn size_hint(kind: Kind, sizes: CollSizes) -> u64 {
    (match kind {
        Kind::Gather | Kind::Broadcast | Kind::Scatter | Kind::Allgather => sizes.n,
        Kind::Reduce | Kind::Scan => sizes.veclen,
        Kind::Alltoall => sizes.block,
    }) as u64
}

pub fn tune(tree: &MachineTree, kind: Kind, n: u64) -> Result<PlanChoice, String> {
    best_plan(tree, kind, n).map_err(|e| e.to_string())
}

pub fn predict_total(tree: &MachineTree, schedule: &CommSchedule) -> f64 {
    predict(tree, schedule).total()
}

/// What the harness needs from a plan after its schedule has moved
/// into the program.
#[derive(Debug, Clone, Copy)]
pub struct PlanMeta {
    pub kind: Kind,
    pub root: Option<ProcId>,
    pub workload: WorkloadPolicy,
}

/// Stage `inputs` as the initial holdings `plan` expects and wrap the
/// schedule in the interpreter program.
pub fn stage(
    tree: &MachineTree,
    plan: PlanChoice,
    inputs: &CollInputs,
) -> (ScheduleProgram, PlanMeta) {
    let p = tree.num_procs();
    let meta = PlanMeta {
        kind: plan.kind,
        root: plan.root,
        workload: plan.workload,
    };
    let mut op = None;
    let init = match plan.kind {
        Kind::Gather | Kind::Allgather => share_inits(tree, &inputs.items, plan.workload),
        Kind::Broadcast | Kind::Scatter => {
            let root = plan.root.expect("rooted collective resolves a root");
            let mut init = vec![ProcInit::default(); p];
            init[root.rank()].units.push((
                UnitId::new(0, inputs.items.len() as u32),
                inputs.items.clone(),
            ));
            init
        }
        Kind::Reduce | Kind::Scan => {
            op = Some(ReduceOp::Sum);
            inputs
                .vectors
                .iter()
                .map(|v| ProcInit {
                    units: Vec::new(),
                    acc: Some(v.clone()),
                })
                .collect()
        }
        Kind::Alltoall => inputs
            .blocks
            .iter()
            .enumerate()
            .map(|(src, row)| ProcInit {
                units: row
                    .iter()
                    .enumerate()
                    .filter(|&(dst, _)| dst != src)
                    .map(|(dst, b)| (block_unit(p, src, dst, b.len()), b.clone()))
                    .collect(),
                acc: None,
            })
            .collect(),
    };
    let prog = ScheduleProgram::new(Arc::new(plan.schedule), Arc::new(init), op);
    (prog, meta)
}

fn block_unit(p: usize, src: usize, dst: usize, len: usize) -> UnitId {
    UnitId::new((src * p + dst) as u32, len as u32)
}

/// The item range each rank owns under `workload`.
pub fn share_ranges(tree: &MachineTree, n: usize, workload: WorkloadPolicy) -> Vec<Range<usize>> {
    let part = partition_for(tree, n as u64, workload);
    (0..tree.num_procs())
        .map(|j| {
            let r = part.range(ProcId(j as u32));
            r.start as usize..r.end as usize
        })
        .collect()
}

pub struct Executed {
    pub model_time: f64,
    pub states: Vec<ScheduleState>,
}

/// Run the program through `schedule::execute` on `exec`'s engine.
pub fn execute(exec: &Executor, prog: &ScheduleProgram) -> Result<Executed, String> {
    let (outcome, states) = schedule::execute(exec, prog).map_err(|e| e.to_string())?;
    Ok(Executed {
        model_time: outcome.total_time(),
        states,
    })
}

/// Read a collective's result out of the final states, as the list of
/// vectors `oracle` describes. With `every_rank` false, broadcast and
/// allgather are read at one processor (the slowest, never the root);
/// with it true, at all of them.
pub fn extract(
    tree: &MachineTree,
    meta: PlanMeta,
    sizes: CollSizes,
    states: &[ScheduleState],
    every_rank: bool,
) -> Vec<Vec<u32>> {
    let p = tree.num_procs();
    let full = UnitId::new(0, sizes.n as u32);
    let acc = |s: &ScheduleState| s.accumulator().unwrap_or_default().to_vec();
    match meta.kind {
        Kind::Gather => {
            let root = meta.root.expect("gather has a root");
            vec![states[root.rank()].unit(full)]
        }
        Kind::Broadcast | Kind::Allgather => {
            if every_rank {
                states.iter().map(|s| s.unit(full)).collect()
            } else {
                vec![states[tree.slowest_proc().rank()].unit(full)]
            }
        }
        Kind::Scatter => share_ranges(tree, sizes.n, meta.workload)
            .into_iter()
            .zip(states)
            .map(|(r, s)| s.unit(UnitId::new(r.start as u32, r.len() as u32)))
            .collect(),
        Kind::Reduce => {
            let root = meta.root.expect("reduce has a root");
            vec![acc(&states[root.rank()])]
        }
        Kind::Scan => states.iter().map(acc).collect(),
        Kind::Alltoall => states
            .iter()
            .enumerate()
            .map(|(dst, s)| {
                let mut incoming = Vec::with_capacity((p - 1) * sizes.block);
                for src in (0..p).filter(|&src| src != dst) {
                    incoming.extend(s.unit(block_unit(p, src, dst, sizes.block)));
                }
                incoming
            })
            .collect(),
    }
}

// ------------------------------------------------------------ executors

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Threads,
    Sim,
}

impl Engine {
    pub fn other(self) -> Engine {
        match self {
            Engine::Threads => Engine::Sim,
            Engine::Sim => Engine::Threads,
        }
    }
}

pub fn executor(tree: &Arc<MachineTree>, engine: Engine) -> Executor {
    match engine {
        Engine::Threads => Executor::threads(Arc::clone(tree)),
        Engine::Sim => Executor::simulator(Arc::clone(tree)),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    Flight,
    Recorder,
}

pub fn executor_with_probe(tree: &Arc<MachineTree>, engine: Engine, probe: ProbeKind) -> Executor {
    let probe: Arc<dyn Probe> = match probe {
        ProbeKind::Flight => Arc::new(FlightRecorder::new()),
        ProbeKind::Recorder => Arc::new(Recorder::new()),
    };
    executor(tree, engine).probe(probe)
}

// ------------------------------------------------------------ scheduler

/// Parse and validate a job-graph file.
pub fn parse_jobs(text: &str) -> Result<Vec<Job>, String> {
    let (parsed, errors) = hbsp::bench::jobfile::parse(text);
    let errors: Vec<String> = errors
        .iter()
        .chain(&hbsp::bench::jobfile::validate(&parsed))
        .map(|e| e.to_string())
        .collect();
    if errors.is_empty() {
        Ok(parsed.into_iter().map(|p| p.job).collect())
    } else {
        Err(errors.join("; "))
    }
}

pub fn scheduler_with(tree: &Arc<MachineTree>, jobs: &[Job]) -> Scheduler {
    let mut sched = Scheduler::new(Arc::clone(tree));
    for job in jobs {
        sched.submit(job.clone());
    }
    sched
}

pub fn scheduler_run(sched: &Scheduler, engine: Engine) -> Result<SchedReport, String> {
    let opts = RunOptions {
        engine: match engine {
            Engine::Threads => hbsp::sched::Engine::Threads,
            Engine::Sim => hbsp::sched::Engine::Simulator,
        },
        serial: false,
        adapt: None,
    };
    sched.run(&opts).map_err(|e| e.to_string())
}

/// True if both drains placed every job identically and left every
/// claimed processor in the same final state.
pub fn same_job_outcomes(a: &SchedReport, b: &SchedReport) -> bool {
    a.jobs.len() == b.jobs.len()
        && a.jobs.iter().zip(&b.jobs).all(|(x, y)| {
            x.batch == y.batch && x.leaves == y.leaves && x.root == y.root && x.states == y.states
        })
}

/// `carve` + `best_plan` for every distinct (kind, n, node) a drain of
/// `jobs` on `tree` can price, with nothing cached. Returns how many
/// were priced.
pub fn price_fixture(tree: &MachineTree, jobs: &[Job]) -> usize {
    let mut shapes: Vec<(Kind, u64, usize)> = jobs
        .iter()
        .filter_map(|j| match j.work {
            hbsp::sched::JobWork::Collective { kind, n } => Some((kind, n, j.min_procs)),
            hbsp::sched::JobWork::Custom { .. } => None,
        })
        .collect();
    shapes.sort_by_key(|&(kind, n, procs)| (kind_name(kind), n, procs));
    shapes.dedup();
    let mut priced = 0;
    for node in tree.nodes() {
        let leaves = tree.subtree_leaves(node.idx()).len();
        let mut carved = None;
        for &(kind, n, procs) in &shapes {
            if leaves >= procs {
                let carved = carved.get_or_insert_with(|| tree.carve(node.idx()));
                black_box(best_plan(&carved.tree, kind, n).ok());
                priced += 1;
            }
        }
    }
    priced
}

pub fn verify_dag_of(jobs: &[Job]) -> usize {
    let edges: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(i, j)| j.blocked_by.iter().map(move |d| (i, d.0)))
        .collect();
    hbsp::check::verify_dag(jobs.len(), &edges).len()
}

// ----------------------------------------------------------------- apps

pub struct AppPrograms {
    pub sizes: AppSizes,
    sort_items: Arc<Vec<u32>>,
    matrix: Arc<Vec<f64>>,
    x: Arc<Vec<f64>>,
    field: Arc<Vec<f64>>,
}

impl AppPrograms {
    pub fn new(inputs: &AppInputs, sizes: AppSizes) -> AppPrograms {
        AppPrograms {
            sizes,
            sort_items: Arc::new(inputs.sort_items.clone()),
            matrix: Arc::new(inputs.matrix.clone()),
            x: Arc::new(inputs.x.clone()),
            field: Arc::new(inputs.field.clone()),
        }
    }
}

const APP_WORKLOAD: WorkloadPolicy = WorkloadPolicy::Balanced;

pub fn sort_program(apps: &AppPrograms) -> SampleSort {
    SampleSort::new(Arc::clone(&apps.sort_items), APP_WORKLOAD)
}

pub fn matvec_program(apps: &AppPrograms) -> MatVec {
    let n = apps.sizes.matvec_n;
    MatVec::new(
        Arc::clone(&apps.matrix),
        Arc::clone(&apps.x),
        n,
        n,
        APP_WORKLOAD,
    )
}

pub fn stencil_program(apps: &AppPrograms) -> Stencil {
    Stencil::new(
        Arc::clone(&apps.field),
        apps.sizes.stencil_iters,
        APP_WORKLOAD,
    )
}

/// Run any program through `Executor::run`; returns its model time and
/// final states.
pub fn run_states<P: SpmdProgram>(
    exec: &Executor,
    prog: &P,
) -> Result<(f64, Vec<P::State>), String> {
    let (outcome, states) = exec.run(prog).map_err(|e| e.to_string())?;
    Ok((outcome.total_time(), states))
}

/// The sorted array: the buckets concatenated in rank order.
pub fn sort_result(states: Vec<SortState>) -> Vec<u32> {
    let mut out = Vec::with_capacity(states.iter().map(|s| s.bucket.len()).sum());
    for s in &states {
        out.extend_from_slice(&s.bucket);
    }
    out
}

/// `y`, assembled at the fastest processor.
pub fn matvec_result(tree: &MachineTree, mut states: Vec<MatVecState>) -> Vec<f64> {
    std::mem::take(&mut states[tree.fastest_proc().rank()].y)
}

/// The relaxed field, assembled at the fastest processor.
pub fn stencil_result(tree: &MachineTree, mut states: Vec<StencilState>) -> Vec<f64> {
    std::mem::take(&mut states[tree.fastest_proc().rank()].result)
}

pub fn jacobi_reference(field: &[f64], iterations: usize) -> Vec<f64> {
    reference_jacobi(field, iterations)
}

// ------------------------------------------------- hand-written programs

/// `steps` empty globally synchronised supersteps, then the drain.
pub struct Spin {
    pub steps: usize,
}

impl SpmdProgram for Spin {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _state: &mut (),
        _ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step == self.steps {
            StepOutcome::Done
        } else {
            StepOutcome::Continue(SyncScope::global(&env.tree))
        }
    }
}

struct ReplayStep {
    scope: Option<SyncScope>,
    /// Per source rank: compute charge and `(dst, payload bytes)` sends.
    work: Vec<f64>,
    sends: Vec<Vec<(ProcId, usize)>>,
}

/// The engine floor under a schedule: a program that posts exactly the
/// schedule's traffic — same pairs, same wire sizes, same barrier
/// scopes, same compute charges — from one pre-encoded buffer, with no
/// interpreter, no unit store and no codec on either side.
pub struct Replay {
    steps: Vec<ReplayStep>,
    payload: Vec<u8>,
    /// Payload bytes posted per run, over all steps and processors.
    pub wire_bytes: u64,
}

impl Replay {
    pub fn of(schedule: &CommSchedule, p: usize) -> Replay {
        let mut longest = 0;
        let mut wire_bytes = 0u64;
        let steps = schedule
            .steps
            .iter()
            .map(|s| {
                let mut work = vec![0.0; p];
                for &(pid, units) in &s.work {
                    work[pid.rank()] += units;
                }
                let mut sends = vec![Vec::new(); p];
                for t in &s.transfers {
                    // Wire layouts of `Piece::encode`, `encode_bundle`
                    // and `encode_u32s`, in `u32` words.
                    let words = match &t.role {
                        Role::Piece(uid) => 1 + uid.len as usize,
                        Role::Bundle(uids) => {
                            1 + uids.iter().map(|u| 2 + u.len as usize).sum::<usize>()
                        }
                        Role::Partial => t.words as usize,
                    };
                    longest = longest.max(4 * words);
                    wire_bytes += 4 * words as u64;
                    sends[t.src.rank()].push((t.dst, 4 * words));
                }
                ReplayStep {
                    scope: s.scope,
                    work,
                    sends,
                }
            })
            .collect();
        Replay {
            steps,
            payload: vec![0xA5; longest],
            wire_bytes,
        }
    }

    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }
}

impl SpmdProgram for Replay {
    /// Bytes received, so the inbox is at least walked.
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        received: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *received += m.payload.len() as u64;
        }
        let s = &self.steps[step];
        let me = env.pid.rank();
        if s.work[me] > 0.0 {
            ctx.charge(s.work[me]);
        }
        for &(dst, bytes) in &s.sends[me] {
            ctx.send(dst, 0, &self.payload[..bytes]);
        }
        match s.scope {
            Some(scope) => StepOutcome::Continue(scope),
            None => StepOutcome::Done,
        }
    }
}

// ------------------------------------------------------------ sim layer

/// Push then pop `n` events with scattered times; returns events moved.
pub fn time_queue_churn(n: u64) -> u64 {
    let mut q = TimeQueue::new();
    for i in 0..n {
        q.push((i.wrapping_mul(2_654_435_761) % 1000) as f64, i);
    }
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    black_box(acc);
    2 * n
}

/// Inputs of one all-to-all superstep on a flat `p`-processor machine.
pub struct TimingCase {
    tree: MachineTree,
    cfg: NetConfig,
    starts: Vec<f64>,
    work: Vec<f64>,
    sends: Vec<SendIntent>,
}

pub fn timing_case(p: usize) -> TimingCase {
    let procs: Vec<(f64, f64)> = (0..p)
        .map(|i| (1.0 + i as f64 * 0.05, 1.0 / (1.0 + i as f64 * 0.05)))
        .collect();
    let sends = (0..p)
        .flat_map(|i| {
            (0..p).filter(move |&j| j != i).map(move |j| SendIntent {
                src: ProcId(i as u32),
                dst: ProcId(j as u32),
                words: 256,
            })
        })
        .collect();
    TimingCase {
        tree: hbsp::core::TreeBuilder::flat(1.0, 100.0, &procs).expect("valid flat machine"),
        cfg: NetConfig::pvm_like(),
        starts: vec![0.0; p],
        work: vec![10.0; p],
        sends,
    }
}

pub fn superstep_timing_once(case: &TimingCase) {
    black_box(superstep_timing(
        &case.tree,
        &case.cfg,
        &case.starts,
        &case.work,
        &case.sends,
    ));
}

pub fn simulator_run<P: SpmdProgram>(tree: &Arc<MachineTree>, prog: &P) -> Result<f64, String> {
    Simulator::new(Arc::clone(tree))
        .run(prog)
        .map(|o| o.total_time)
        .map_err(|e| e.to_string())
}

// -------------------------------------------------------- runtime layer

#[derive(Debug, Clone, Copy)]
pub enum Barrier {
    Hierarchical,
    Central,
}

pub fn threaded_runtime(
    tree: &Arc<MachineTree>,
    barrier: Barrier,
    flight: bool,
) -> ThreadedRuntime {
    let rt = ThreadedRuntime::new(Arc::clone(tree)).barrier(match barrier {
        Barrier::Hierarchical => BarrierKind::Hierarchical,
        Barrier::Central => BarrierKind::Central,
    });
    if flight {
        rt.probe(Arc::new(FlightRecorder::new()))
    } else {
        rt
    }
}

/// Wall nanoseconds the runtime itself reports for one run of `prog`.
pub fn runtime_run_ns<P: SpmdProgram>(rt: &ThreadedRuntime, prog: &P) -> Result<u64, String> {
    rt.run(prog)
        .map(|o| o.wall.as_nanos() as u64)
        .map_err(|e| e.to_string())
}

/// A flat machine of `p` identical processors.
pub fn flat_machine(p: usize) -> Arc<MachineTree> {
    Arc::new(hbsp::core::TreeBuilder::homogeneous(1.0, 10.0, p).expect("valid flat machine"))
}

/// `rounds` deposit/take round trips of a `msgs`-message batch through
/// one mailbox.
pub fn mailbox_roundtrips(rounds: usize, msgs: usize, payload: &[u8]) {
    let mailbox = Mailbox::new();
    let mut outgoing = MsgBatch::new();
    let mut inbox = MsgBatch::new();
    for _ in 0..rounds {
        for i in 0..msgs {
            outgoing.push(ProcId(0), ProcId(1), i as u32, payload);
        }
        mailbox.deposit_batch(&mut outgoing);
        mailbox.take_into(&mut inbox);
        black_box(inbox.len());
    }
}

/// `rounds` crossings of the hierarchical barrier of `tree` by one
/// thread per leaf; returns the wall nanoseconds of the whole loop.
pub fn barrier_crossings_ns(tree: &MachineTree, rounds: usize) -> u64 {
    let barrier = HierBarrier::new(tree);
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for rank in 0..tree.num_procs() {
            let barrier = &barrier;
            s.spawn(move || {
                for _ in 0..rounds {
                    barrier.wait(rank);
                }
            });
        }
    });
    start.elapsed().as_nanos() as u64
}

// ------------------------------------------------------- hbsplib layer

pub fn codec_encode(values: &[u32]) -> Vec<u8> {
    codec::encode_u32s(values)
}

pub fn codec_decode(bytes: &[u8]) -> Vec<u32> {
    codec::decode_u32s(bytes)
}

/// One adaptive run: `rounds` rounds of a broadcast of `n` words on the
/// simulator under `faults`; returns the model time.
pub fn adaptive_broadcast(
    tree: &Arc<MachineTree>,
    faults_text: &str,
    n: u64,
    rounds: usize,
) -> Result<f64, String> {
    let faults = FaultPlan::parse(faults_text)?;
    let exec = Executor::simulator(Arc::clone(tree)).faults(faults);
    let job = RepeatedCollective::new(Kind::Broadcast, n, 3);
    AdaptiveExecutor::new(exec)
        .run(&job, rounds)
        .map(|o| o.total_time)
        .map_err(|e| e.to_string())
}

// --------------------------------------------------- collectives layer

pub fn share_inits_once(tree: &MachineTree, items: &[u32]) {
    black_box(share_inits(tree, items, WorkloadPolicy::Balanced));
}

pub fn piece_encode(items: &[u32]) -> Vec<u8> {
    Piece {
        offset: 0,
        items: items.to_vec(),
    }
    .encode()
}

pub fn piece_decode(payload: &[u8]) -> usize {
    Piece::decode(payload).map_or(0, |p| p.len())
}

// ---------------------------------------------------------- check layer

/// A hierarchical-broadcast schedule with its initial holdings, ready
/// for the checker.
pub struct CheckCase {
    tree: Arc<MachineTree>,
    view: hbsp::check::ScheduleView,
    holdings: Vec<hbsp::check::ProcHoldings>,
}

pub fn check_case(tree: &Arc<MachineTree>, n: u64) -> Result<CheckCase, String> {
    let plan = hbsp::collectives::broadcast::BroadcastPlan::hierarchical(
        hbsp::collectives::PhasePolicy::TwoPhase,
    );
    let (schedule, root) =
        hbsp::collectives::broadcast::lower_broadcast(tree, n, &plan).map_err(|e| e.to_string())?;
    let mut init = vec![ProcInit::default(); tree.num_procs()];
    init[root.rank()]
        .units
        .push((UnitId::new(0, n as u32), Vec::new()));
    Ok(CheckCase {
        tree: Arc::clone(tree),
        view: schedule_view(&schedule),
        holdings: holdings(&init),
    })
}

/// Returns the number of violations found (0 for the committed
/// lowerings).
pub fn verify_schedule_once(case: &CheckCase) -> usize {
    hbsp::check::verify_schedule(&case.tree, &case.view).len()
}

pub fn verify_dataflow_once(case: &CheckCase) -> usize {
    hbsp::check::verify_dataflow(&case.tree, &case.view, &case.holdings, false).len()
}

pub fn verify_lowerings_once(tree: &MachineTree, n: u64) -> usize {
    verify_standard_lowerings(tree, n)
        .iter()
        .map(|l| l.violations.iter().filter(|v| v.is_fatal()).count())
        .sum()
}

// ------------------------------------------------------------ obs layer

/// Run `prog` under a fresh `Recorder` and time its Chrome-trace
/// export, in nanoseconds.
pub fn chrome_export_ns(tree: &Arc<MachineTree>, prog: &ScheduleProgram) -> Result<u64, String> {
    let recorder = Arc::new(Recorder::new());
    let exec = executor(tree, Engine::Sim).probe(recorder.clone());
    execute(&exec, prog)?;
    let start = std::time::Instant::now();
    black_box(recorder.chrome_trace());
    Ok(start.elapsed().as_nanos() as u64)
}
