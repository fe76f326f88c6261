//! Visualize heterogeneity: trace a gather on the simulated testbed and
//! render per-processor Gantt charts, then decompose the predicted cost
//! into compute / communication / per-level synchronization (the §3.4
//! "penalty" analysis). Shows concretely why "faster machines typically
//! sit idle waiting for slower nodes" under equal workloads.
//!
//! ```text
//! cargo run --example imbalance_gantt
//! ```

use hbsp::collectives::gather::{self, GatherPlan};
use hbsp::collectives::plan::WorkloadPolicy;
use hbsp::collectives::predict;
use hbsp::core::analysis::{heterogeneity, Penalty};
use hbsp::lib::Executor;
use hbsp::obs::Recorder;
use hbsp::sim::{ascii_gantt, ProcTimeline, SpanKind};
use std::sync::Arc;

fn main() {
    let tree = Arc::new(hbsp::bench::testbed(6).expect("testbed builds"));
    let recorder = Arc::new(Recorder::new());
    let exec = Executor::simulator(tree.clone()).probe(recorder.clone());
    let items: Vec<u32> = (0..40_000).collect();

    let h = heterogeneity(&tree);
    println!(
        "testbed: p = {}, max r = {:.1}, mean r = {:.2}, slowest speed = {:.2}, \
         aggregate speed = {:.2}\n",
        tree.num_procs(),
        h.max_r,
        h.mean_r,
        h.min_speed,
        h.aggregate_speed
    );

    for (label, workload) in [
        ("equal shares (c_j = 1/p)", WorkloadPolicy::Equal),
        (
            "balanced shares (c_j from bytemark)",
            WorkloadPolicy::Balanced,
        ),
        (
            "comm-aware shares (compute x network)",
            WorkloadPolicy::CommAware,
        ),
    ] {
        let plan = GatherPlan::fast_root().with_workload(workload);
        let before = recorder.recorded();
        let out = gather::run(&exec, &items, plan).expect("gather runs").sim;
        let timelines = ProcTimeline::from_steps(&recorder.steps_since(before).steps);
        println!("gather with {label}: T = {:.0}", out.total_time);
        println!("{}", ascii_gantt(&timelines, 72));
        for tl in &timelines {
            println!(
                "  {:>3} {:<9} send {:>8.0}  unpack {:>8.0}  idle {:>5.1}%",
                tl.pid.to_string(),
                tree.leaf(tl.pid).name(),
                tl.time_in(SpanKind::Send).max(0.0),
                tl.time_in(SpanKind::Unpack).max(0.0),
                100.0 * tl.idle_fraction(out.total_time),
            );
        }
        println!();
    }

    // The model-side decomposition of the same operation (§3.4).
    let report = predict::gather_flat(
        &tree,
        items.len() as u64,
        tree.fastest_proc(),
        WorkloadPolicy::Equal,
    );
    let penalty = Penalty::of(&report, tree.height());
    println!("predicted cost decomposition (equal shares):");
    print!("{penalty}");
    println!(
        "hierarchy penalty above level 0: {:.0} (all of it barrier overhead \
         on this flat machine)",
        penalty.penalty_above(0)
    );
}
