//! A complete heterogeneous application: `hbsp_apps`' sample sort of
//! 200 000 integers on a skewed 5-machine cluster, with equal and then
//! `c_j`-balanced shares, on the simulator and on real threads. The
//! local sort is compute-bound, so balanced shares win: the stragglers
//! get proportionally smaller runs and nobody waits (the paper's first
//! design rule).
//!
//! ```text
//! cargo run --example pipeline_sort
//! ```

use hbsp::apps::sort;
use hbsp::collectives::plan::{RootPolicy, WorkloadPolicy};
use hbsp::prelude::*;
use std::sync::Arc;

fn main() {
    let procs = [(1.0, 1.0), (1.5, 0.7), (2.0, 0.5), (3.0, 0.3), (3.5, 0.25)];
    let tree = Arc::new(TreeBuilder::flat(1.0, 2_000.0, &procs).expect("valid machine"));
    let mut x = 0x9E3779B97F4A7C15u64;
    let items: Vec<u32> = (0..200_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let mut expected = items.clone();
    expected.sort_unstable();

    println!(
        "sample sort of {} integers on 5 heterogeneous machines",
        items.len()
    );
    let mut times = Vec::new();
    for workload in [WorkloadPolicy::Equal, WorkloadPolicy::Balanced] {
        let on = |exec: Executor| {
            let run = sort::run(&exec, &items, workload, RootPolicy::Fastest).expect("sort runs");
            assert_eq!(run.sorted, expected, "sorted output is correct");
            run
        };
        let sim = on(Executor::simulator(Arc::clone(&tree)));
        let thr = on(Executor::threads(Arc::clone(&tree)));
        assert_eq!(
            thr.time.to_bits(),
            sim.time.to_bits(),
            "engines agree on time"
        );
        assert_eq!(
            thr.bucket_sizes, sim.bucket_sizes,
            "engines agree on buckets"
        );
        println!(
            "{workload:?} shares: model time = {:.0}, buckets = {:?}, both engines",
            sim.time, sim.bucket_sizes
        );
        times.push(sim.time);
    }
    assert!(times[1] < times[0], "balanced shares beat equal ones");
}
