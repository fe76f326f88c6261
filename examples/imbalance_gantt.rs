//! Visualize heterogeneity: trace a gather on the simulated testbed and
//! render per-processor Gantt charts, then split the predicted cost
//! into compute / communication / per-level synchronization (the §3.4
//! penalty). Shows concretely why "faster machines typically
//! sit idle waiting for slower nodes" under equal workloads.
//!
//! ```text
//! cargo run --example imbalance_gantt
//! ```

use hbsp::collectives::gather::{self, GatherPlan};
use hbsp::collectives::plan::WorkloadPolicy;
use hbsp::collectives::predict;
use hbsp::lib::Executor;
use hbsp::obs::Recorder;
use hbsp::sim::{ascii_gantt, ProcTimeline, SpanKind};
use std::sync::Arc;

fn main() {
    let tree = Arc::new(hbsp::bench::testbed(6).expect("testbed builds"));
    let recorder = Arc::new(Recorder::new());
    let exec = Executor::simulator(tree.clone()).probe(recorder.clone());
    let items: Vec<u32> = (0..40_000).collect();

    println!(
        "testbed: p = {}, HBSP^{}\n",
        tree.num_procs(),
        tree.height()
    );

    let mut times = Vec::new();
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
        times.push(out.total_time);
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

    assert!(
        times[0] > times[1] && times[1] > times[2],
        "each share policy gathers faster than the one before: {times:?}"
    );

    // The model-side split of the same operation (§3.4).
    let report = predict::gather_flat(
        &tree,
        items.len() as u64,
        tree.fastest_proc(),
        WorkloadPolicy::Equal,
    );
    let (compute, comm, sync) = (report.compute(), report.comm(), report.sync());
    println!(
        "predicted cost split (equal shares): total = {:.1}",
        report.total()
    );
    println!("  compute {compute:.1}, comm {comm:.1}, sync {sync:.1}");
    let mut sync_by_level = vec![0.0; tree.height() as usize + 1];
    for step in report.steps() {
        sync_by_level[step.level as usize] += step.sync;
    }
    for (level, l) in sync_by_level.iter().enumerate().filter(|(_, l)| **l > 0.0) {
        println!("  L at level {level}: {l:.1}");
    }
    let parts = compute + comm + sync;
    assert!(
        (parts - report.total()).abs() <= 1e-9 * report.total(),
        "the split sums to T"
    );
}
