//! `hbsp_trace` — run a collective with telemetry on and export the
//! evidence: spans, metrics, and a cost-model drift report.
//!
//! ```text
//! hbsp_trace <machine> <operation> [options]
//! hbsp_trace --validate <trace.json>
//!
//! machine:
//!   testbed:<p>        the simulated UCF testbed with p processors (1-10)
//!   testbed2           the HBSP^2 campus testbed
//!   <path>             a topology DSL file (see hbsp-core::topology)
//!
//! operation: gather | broadcast | scatter | allgather
//!
//! options:
//!   --kb <n>           problem size in KB of u32s      (default 100)
//!   --strategy <s>     flat | hier                     (default flat)
//!   --engine <e>       sim | threads                   (default sim)
//!   --format <f>       chrome | jsonl                  (default chrome)
//!   --out <file>       write the trace there instead of stdout
//!   --gantt            also print the ASCII Gantt chart
//!   --calibrate        also back-fit g, L, speeds and r from the run
//! ```
//!
//! The run always prints the drift table (predicted vs observed per
//! superstep) and the metrics snapshot to stderr, so stdout stays a
//! clean trace stream when `--out` is omitted. `--format chrome` loads
//! in Perfetto / `chrome://tracing`; `--validate` checks any Chrome
//! trace file for well-formedness (sorted timestamps, balanced B/E or
//! complete X events) and exits non-zero on violations.
//!
//! Examples:
//!
//! ```text
//! cargo run -p hbsp-bench --bin hbsp_trace -- machines/campus.hbsp gather \
//!     --strategy hier --engine threads --out trace.json
//! cargo run -p hbsp-bench --bin hbsp_trace -- --validate trace.json
//! ```

use hbsp_bench::cli::{self, Args, STRATEGIES};
use hbsp_bench::testbed::input_kb;
use hbsp_collectives::allgather::{lower_flat_allgather, lower_hierarchical_allgather};
use hbsp_collectives::broadcast::{lower_broadcast, BroadcastPlan};
use hbsp_collectives::drift::predicted_steps;
use hbsp_collectives::gather::{lower_gather, GatherPlan};
use hbsp_collectives::plan::{PhasePolicy, RootPolicy, Strategy, WorkloadPolicy};
use hbsp_collectives::scatter::lower_scatter;
use hbsp_collectives::schedule::{execute, stage, CommSchedule, ScheduleProgram, Staging};
use hbsp_collectives::CollectiveError;
use hbsp_core::MachineTree;
use hbsp_obs::{calibrate, DriftReport, Recorder};
use hbsp_sim::{ascii_gantt, ProcTimeline};
use hbsplib::Executor;
use std::io::Write as _;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: hbsp_trace <machine> <operation> [--kb N] [--strategy flat|hier]\n\
         \x20                [--engine sim|threads] [--format chrome|jsonl]\n\
         \x20                [--out FILE] [--gantt] [--calibrate]\n\
         \x20      hbsp_trace --validate <trace.json>\n\
         machine: testbed:<p> | testbed2 | <topology file>\n\
         operation: gather | broadcast | scatter | allgather"
    );
    exit(2)
}

/// Standalone validation mode: check a Chrome trace file and report.
fn validate(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        exit(1)
    });
    match hbsp_obs::validate_chrome_trace(&text) {
        Ok(check) => {
            println!(
                "{path}: OK — {} events ({} complete, {} begin/end pairs)",
                check.events, check.complete, check.pairs
            );
            exit(0)
        }
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            exit(1)
        }
    }
}

/// Lower `op` on `tree`, producing the schedule and where its data
/// starts. The source-rooted collectives start with the fastest
/// processor holding all `items`; the others start from per-processor
/// shares.
fn lower<'a>(
    tree: &MachineTree,
    op: &str,
    items: &'a [u32],
    strategy: Strategy,
) -> Result<(CommSchedule, Staging<'a>), CollectiveError> {
    let n = items.len() as u64;
    let shares = Staging::Shares(items, WorkloadPolicy::Equal);
    Ok(match op {
        "gather" => {
            let plan = GatherPlan {
                root: RootPolicy::Fastest,
                workload: WorkloadPolicy::Equal,
                strategy,
            };
            (lower_gather(tree, n, plan)?.0, shares)
        }
        "broadcast" => {
            let plan = BroadcastPlan {
                root: RootPolicy::Fastest,
                strategy,
                top_phase: PhasePolicy::TwoPhase,
                cluster_phase: PhasePolicy::TwoPhase,
                workload: WorkloadPolicy::Equal,
            };
            let (sched, src) = lower_broadcast(tree, n, &plan)?;
            (sched, Staging::AtRoot(src, items.to_vec()))
        }
        "scatter" => {
            let root = tree.fastest_proc();
            let sched = lower_scatter(tree, n, root, WorkloadPolicy::Equal);
            (sched, Staging::AtRoot(root, items.to_vec()))
        }
        "allgather" => {
            let sched = match strategy {
                Strategy::Flat => lower_flat_allgather(tree, n, WorkloadPolicy::Equal),
                Strategy::Hierarchical => {
                    lower_hierarchical_allgather(tree, n, WorkloadPolicy::Equal)
                }
            };
            (sched, shares)
        }
        _ => usage(),
    })
}

fn main() {
    let mut args = Args::new(usage);
    if let Some(path) = args.value::<String>("--validate") {
        if !args.positional().is_empty() {
            usage()
        }
        validate(&path)
    }
    let kb = args.value("--kb").unwrap_or(100);
    let strategy = (args.choice("--strategy", &STRATEGIES)).unwrap_or(Strategy::Flat);
    let engine = args.value("--engine").unwrap_or_else(|| "sim".to_string());
    let chrome = (args.choice("--format", &[("chrome", true), ("jsonl", false)])).unwrap_or(true);
    let out: Option<String> = args.value("--out");
    let gantt = args.flag("--gantt");
    let back_fit = args.flag("--calibrate");
    let [machine, op] = &args.positional()[..] else {
        usage()
    };
    let tree = Arc::new(cli::machine(machine, usage));

    let items = input_kb(kb);
    let (sched, input) = lower(&tree, op, &items, strategy).unwrap_or_else(|e| {
        eprintln!("hbsp_trace: {e}");
        exit(1)
    });
    let predicted = predicted_steps(&tree, &sched);
    let prog = ScheduleProgram::new(Arc::new(sched), Arc::new(stage(&tree, input)), None);

    let recorder = Arc::new(Recorder::new());
    let exec = Executor::from_engine_name(&engine, tree.clone()).unwrap_or_else(|| usage());
    let (outcome, _states) = execute(&exec.probe(recorder.clone()), &prog).unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1)
    });

    eprintln!(
        "machine: HBSP^{} with {} processors; {} of {} KB on the {}",
        tree.height(),
        tree.num_procs(),
        op,
        kb,
        // The engine's long form; docs/runtime.md, "Adding an engine" (b).
        match outcome.wall {
            Some(_) => "threaded runtime",
            None => "simulator",
        }
    );
    eprintln!("model time: {:.0}", outcome.total_time());

    let steps = recorder.steps();
    match DriftReport::new(&steps, &predicted) {
        Ok(report) => eprintln!("\n{}", report.render()),
        Err(e) => eprintln!("drift report unavailable: {e}"),
    }
    eprintln!("{}", recorder.metrics_text());

    if gantt {
        eprintln!("{}", ascii_gantt(&ProcTimeline::from_steps(&steps), 72));
    }
    if back_fit {
        match calibrate(&steps) {
            Ok(cal) => eprintln!("{}", cal.render()),
            Err(e) => eprintln!("calibration unavailable: {e}"),
        }
    }

    let trace = if chrome {
        hbsp_obs::chrome_trace(&steps)
    } else {
        hbsp_obs::jsonl(&steps, &recorder.events(), &recorder.metrics())
    };
    match &out {
        Some(path) => {
            std::fs::write(path, &trace).unwrap_or_else(|e| {
                eprintln!("cannot write `{path}`: {e}");
                exit(1)
            });
            eprintln!("trace written to {path}");
        }
        None => {
            if let Err(e) = std::io::stdout().lock().write_all(trace.as_bytes()) {
                eprintln!("hbsp_trace: stdout: {e}");
                exit(1)
            }
        }
    }
}
