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

use hbsp_bench::testbed::{self, input_kb};
use hbsp_collectives::broadcast::BroadcastPlan;
use hbsp_collectives::gather::GatherPlan;
use hbsp_collectives::plan::{PhasePolicy, RootPolicy, Strategy, WorkloadPolicy};
use hbsp_collectives::reduce::ReduceOp;
use hbsp_collectives::{allgather, alltoall, broadcast, gather, reduce, scan, scatter};
use hbsp_core::MachineTree;
use hbsp_obs::Recorder;
use hbsp_sim::{ascii_gantt, ProcTimeline, SimOutcome, TraceSummary};
use hbsplib::Executor;
use std::process::exit;
use std::sync::Arc;

struct Options {
    kb: usize,
    root: RootPolicy,
    workload: WorkloadPolicy,
    strategy: Strategy,
    phase: PhasePolicy,
    trace: bool,
    json: bool,
}

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

fn parse_machine(spec: &str) -> MachineTree {
    match testbed::parse_machine(spec) {
        Ok(Some(tree)) => tree,
        Ok(None) => usage(),
        Err(e) => {
            eprintln!("{e}");
            exit(1)
        }
    }
}

fn parse_options(args: &[String]) -> Options {
    let mut o = Options {
        kb: 100,
        root: RootPolicy::Fastest,
        workload: WorkloadPolicy::Equal,
        strategy: Strategy::Flat,
        phase: PhasePolicy::TwoPhase,
        trace: false,
        json: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--kb" => {
                o.kb = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--root" => {
                o.root = match it.next().map(String::as_str) {
                    Some("fastest") => RootPolicy::Fastest,
                    Some("slowest") => RootPolicy::Slowest,
                    Some(r) => RootPolicy::Rank(r.parse().unwrap_or_else(|_| usage())),
                    None => usage(),
                }
            }
            "--workload" => {
                o.workload = match it.next().map(String::as_str) {
                    Some("equal") => WorkloadPolicy::Equal,
                    Some("balanced") => WorkloadPolicy::Balanced,
                    Some("commaware") => WorkloadPolicy::CommAware,
                    _ => usage(),
                }
            }
            "--strategy" => {
                o.strategy = match it.next().map(String::as_str) {
                    Some("flat") => Strategy::Flat,
                    Some("hier") => Strategy::Hierarchical,
                    _ => usage(),
                }
            }
            "--phase" => {
                o.phase = match it.next().map(String::as_str) {
                    Some("one") => PhasePolicy::OnePhase,
                    Some("two") => PhasePolicy::TwoPhase,
                    _ => usage(),
                }
            }
            "--trace" => o.trace = true,
            "--json" => o.json = true,
            _ => usage(),
        }
    }
    o
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        usage();
    }
    let op = args[1].as_str();
    let o = parse_options(&args[2..]);
    let recorder = o.trace.then(|| Arc::new(Recorder::new()));
    let mut exec = Executor::simulator(Arc::new(parse_machine(&args[0])));
    if let Some(recorder) = &recorder {
        exec = exec.probe(recorder.clone());
    }
    let tree = exec.tree();
    let items = input_kb(o.kb);
    if !o.json {
        println!(
            "machine: HBSP^{} with {} processors; {} of {} KB ({} words)",
            tree.height(),
            tree.num_procs(),
            op,
            o.kb,
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
    let sim = match op {
        "gather" => {
            let plan = GatherPlan {
                root: o.root,
                workload: o.workload,
                strategy: o.strategy,
            };
            gather::run(&exec, &items, plan).expect("run").sim
        }
        "broadcast" => {
            let plan = BroadcastPlan {
                root: o.root,
                strategy: o.strategy,
                top_phase: o.phase,
                cluster_phase: PhasePolicy::TwoPhase,
                workload: o.workload,
            };
            broadcast::run(&exec, &items, plan).expect("run").sim
        }
        "scatter" => {
            scatter::run(&exec, &items, o.root, o.workload)
                .expect("run")
                .sim
        }
        "allgather" => {
            allgather::run(&exec, &items, o.workload, o.strategy)
                .expect("run")
                .sim
        }
        "alltoall" => {
            let p = tree.num_procs();
            let block = (items.len() / (p * p)).max(1);
            let blocks: Vec<Vec<Vec<u32>>> = (0..p)
                .map(|i| (0..p).map(|j| vec![(i * p + j) as u32; block]).collect())
                .collect();
            alltoall::run(&exec, blocks, o.strategy).expect("run").sim
        }
        "reduce" => {
            reduce::run(&exec, vectors(), ReduceOp::Sum, o.root, o.strategy)
                .expect("run")
                .sim
        }
        "scan" => scan::run(&exec, vectors(), ReduceOp::Sum).expect("run").sim,
        _ => usage(),
    };
    if o.json {
        report_json(&args[0], op, &sim);
    } else {
        report(&sim, recorder.as_deref());
    }
}
