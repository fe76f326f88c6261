//! `hbsp_run` — drive any collective on any machine from the command
//! line.
//!
//! ```text
//! hbsp_run <machine> <operation> [options]
//!
//! machine:
//!   testbed:<p>        the simulated UCF testbed with p processors (1-10)
//!   testbed2           the HBSP^2 campus testbed
//!   <path>             a topology DSL file (see hbsp-core::topology)
//!
//! operation: gather | broadcast | scatter | allgather | alltoall | reduce | scan
//!
//! options:
//!   --kb <n>           problem size in KB of u32s      (default 100)
//!   --root <policy>    fastest | slowest | <rank>      (default fastest)
//!   --workload <w>     equal | balanced | commaware    (default equal)
//!   --strategy <s>     flat | hier                     (default flat)
//!   --phase <p>        one | two      (broadcast only; default two)
//!   --trace            also print a Gantt chart of the run
//!   --json             emit one machine-readable JSON line instead
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run -p hbsp-bench --bin hbsp_run -- testbed:6 gather --root slowest --trace
//! cargo run -p hbsp-bench --bin hbsp_run -- machines/campus.hbsp broadcast --strategy hier
//! ```

use hbsp_bench::cli::{self, Args, STRATEGIES};
use hbsp_bench::testbed::input_kb;
use hbsp_collectives::broadcast::BroadcastPlan;
use hbsp_collectives::gather::GatherPlan;
use hbsp_collectives::plan::{PhasePolicy, RootPolicy, Strategy, WorkloadPolicy};
use hbsp_collectives::reduce::ReduceOp;
use hbsp_collectives::{
    allgather, alltoall, broadcast, gather, reduce, scan, scatter, CollectiveKind,
};
use hbsp_obs::Recorder;
use hbsp_sim::{ascii_gantt, ProcTimeline, SimOutcome, TraceSummary};
use hbsplib::Executor;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: hbsp_run <machine> <operation> [--kb N] [--root fastest|slowest|RANK]\n\
         \x20              [--workload equal|balanced|commaware] [--strategy flat|hier]\n\
         \x20              [--phase one|two] [--trace] [--json]\n\
         machine: testbed:<p> | testbed2 | <topology file>\n\
         operation: gather | broadcast | scatter | allgather | alltoall | reduce | scan"
    );
    exit(2)
}

/// One machine-readable line (the JSONL record for `--json`).
fn report_json(machine: &str, op: &str, sim: &SimOutcome) {
    use hbsp_obs::json::{record, Field::*};
    println!(
        "{}",
        record(&[
            ("kind", Str("run")),
            ("machine", Str(machine)),
            ("operation", Str(op)),
            ("outcome", Str("ok")),
            ("model_time", Num(sim.total_time)),
            ("steps", Int(sim.num_steps() as u64)),
            ("messages", Int(sim.messages_delivered)),
        ])
    );
}

/// The run's summary; with `--trace` (a recorder was attached), also
/// the activity totals and Gantt chart of the steps it kept.
fn report(sim: &SimOutcome, recorder: Option<&Recorder>) {
    println!("model time      : {:.0}", sim.total_time);
    println!("supersteps      : {}", sim.num_steps());
    println!("messages        : {}", sim.messages_delivered);
    for (i, step) in sim.steps.iter().enumerate() {
        println!(
            "  step {i}: scope {:?}, h = {:.0}, duration = {:.0}, words by level = {:?}",
            step.scope,
            step.hrelation,
            step.duration(),
            step.traffic.iter().map(|t| t.words).collect::<Vec<_>>()
        );
    }
    if let Some(recorder) = recorder {
        let tls = &ProcTimeline::from_steps(&recorder.steps());
        let s = TraceSummary::of(tls);
        // A total over no spans is -0.0, and `max` may return either
        // zero; `+ 0.0` prints it as "0" in every build profile.
        let shown = |total: f64| total.max(0.0) + 0.0;
        println!(
            "activity        : compute {:.0}, send {:.0}, unpack {:.0}, wait {:.0} ({:.1}% idle)",
            shown(s.compute),
            shown(s.send),
            shown(s.unpack),
            shown(s.barrier_wait),
            100.0 * s.wait_fraction()
        );
        println!("{}", ascii_gantt(tls, 72));
    }
}

fn main() {
    let mut args = Args::new(usage);
    let kb = args.value("--kb").unwrap_or(100);
    let root = match args.value::<String>("--root").as_deref() {
        None | Some("fastest") => RootPolicy::Fastest,
        Some("slowest") => RootPolicy::Slowest,
        Some(rank) => RootPolicy::Rank(rank.parse().unwrap_or_else(|_| usage())),
    };
    let workloads = [
        ("equal", WorkloadPolicy::Equal),
        ("balanced", WorkloadPolicy::Balanced),
        ("commaware", WorkloadPolicy::CommAware),
    ];
    let workload = (args.choice("--workload", &workloads)).unwrap_or(WorkloadPolicy::Equal);
    let strategy = (args.choice("--strategy", &STRATEGIES)).unwrap_or(Strategy::Flat);
    let phases = [
        ("one", PhasePolicy::OnePhase),
        ("two", PhasePolicy::TwoPhase),
    ];
    let phase = (args.choice("--phase", &phases)).unwrap_or(PhasePolicy::TwoPhase);
    let trace = args.flag("--trace");
    let json = args.flag("--json");
    let [machine, op] = &args.positional()[..] else {
        usage()
    };
    let kind = CollectiveKind::parse(op).unwrap_or_else(|| usage());
    let recorder = trace.then(|| Arc::new(Recorder::new()));
    let mut exec = Executor::simulator(Arc::new(cli::machine(machine, usage)));
    if let Some(recorder) = &recorder {
        exec = exec.probe(recorder.clone());
    }
    let tree = exec.tree();
    let items = input_kb(kb);
    if !json {
        println!(
            "machine: HBSP^{} with {} processors; {} of {} KB ({} words)",
            tree.height(),
            tree.num_procs(),
            op,
            kb,
            items.len()
        );
    }

    // Equal-length vectors for the two reductions: the input cut in p.
    let vectors = || -> Vec<Vec<u32>> {
        let p = tree.num_procs();
        let len = items.len() / p.max(1);
        (0..p)
            .map(|i| items[i * len..(i + 1) * len].to_vec())
            .collect()
    };
    let sim = match kind {
        CollectiveKind::Gather => {
            let plan = GatherPlan {
                root,
                workload,
                strategy,
            };
            gather::run(&exec, &items, plan).map(|run| run.sim)
        }
        CollectiveKind::Broadcast => {
            let plan = BroadcastPlan {
                root,
                strategy,
                top_phase: phase,
                cluster_phase: PhasePolicy::TwoPhase,
                workload,
            };
            broadcast::run(&exec, &items, plan).map(|run| run.sim)
        }
        CollectiveKind::Scatter => scatter::run(&exec, &items, root, workload).map(|run| run.sim),
        CollectiveKind::Allgather => {
            allgather::run(&exec, &items, workload, strategy).map(|run| run.sim)
        }
        CollectiveKind::Alltoall => {
            let p = tree.num_procs();
            let block = (items.len() / (p * p)).max(1);
            let blocks: Vec<Vec<Vec<u32>>> = (0..p)
                .map(|i| (0..p).map(|j| vec![(i * p + j) as u32; block]).collect())
                .collect();
            alltoall::run(&exec, blocks, strategy).map(|run| run.sim)
        }
        CollectiveKind::Reduce => {
            reduce::run(&exec, vectors(), ReduceOp::Sum, root, strategy).map(|run| run.sim)
        }
        CollectiveKind::Scan => scan::run(&exec, vectors(), ReduceOp::Sum).map(|run| run.sim),
    };
    let sim = sim.unwrap_or_else(|e| {
        eprintln!("hbsp_run: {e}");
        exit(1)
    });
    if json {
        report_json(machine, op, &sim);
    } else {
        report(&sim, recorder.as_deref());
    }
}
