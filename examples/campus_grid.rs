//! A three-level (HBSP^3) campus grid, described in the topology DSL:
//! two campuses joined by a wide-area link, each campus holding LANs of
//! heterogeneous workstations. Runs hierarchical vs flat collectives
//! and shows how the hierarchy confines traffic to cheap links.
//!
//! ```text
//! cargo run --example campus_grid
//! ```

use hbsp::prelude::*;
use hbsp_collectives::gather::{self, GatherPlan};
use hbsp_collectives::plan::{RootPolicy, Strategy};
use hbsp_collectives::reduce::{self, ReduceOp};
use hbsp_core::topology;
use hbsp_sim::NetConfig;
use std::sync::Arc;

const GRID: &str = r#"
# Two campuses over a WAN; each campus has two LANs.
g = 1.0
cluster wan (L=500000) {
    cluster campus-a (L=60000) {
        cluster lan-a1 (L=2000) {
            proc a1-fast (r=1, speed=1)
            proc a1-mid  (r=1.6, speed=0.7)
            proc a1-old  (r=2.8, speed=0.4)
        }
        cluster lan-a2 (L=2000) {
            proc a2-mid  (r=1.8, speed=0.6)
            proc a2-old  (r=3.0, speed=0.35)
        }
    }
    cluster campus-b (L=60000) {
        cluster lan-b1 (L=2000) {
            proc b1-fast (r=1.2, speed=0.9)
            proc b1-mid  (r=2.0, speed=0.55)
        }
        cluster lan-b2 (L=2000) {
            proc b2-mid  (r=2.2, speed=0.5)
            proc b2-old  (r=3.6, speed=0.3)
            proc b2-oldest (r=4.0, speed=0.25)
        }
    }
}
"#;

fn main() {
    let grid = topology::parse(GRID).expect("valid topology");
    println!(
        "parsed campus grid: HBSP^{} machine, {} processors, {} level-1 LANs",
        grid.height(),
        grid.num_procs(),
        grid.machines_on_level(1).expect("level 1 exists"),
    );

    // A WAN where crossing the top level is 10x more expensive per word
    // and adds real latency — the paper's future-work extension of r to
    // destination-dependent costs.
    let cfg = NetConfig::pvm_like()
        .with_bandwidth_factors(vec![1.0, 1.0, 4.0, 10.0])
        .with_latency(vec![0.0, 0.0, 2_000.0, 50_000.0]);
    let exec = Executor::simulator_with(Arc::new(grid), cfg);
    let grid = exec.tree();

    let items: Vec<u32> = (0..100_000u32).collect();
    let hier = gather::run(&exec, &items, GatherPlan::hierarchical()).expect("run");
    let flat = gather::run(&exec, &items, GatherPlan::fast_root()).expect("run");
    assert_eq!(hier.result, items);
    assert_eq!(flat.result, items);

    println!(
        "\ngather of {} words to {}:",
        items.len(),
        grid.leaf(hier.root).name()
    );
    let top_msgs = |sim: &hbsp_sim::SimOutcome| -> (u64, u64) {
        let words = sim.steps.iter().map(|s| s.words_at(3)).sum();
        let msgs = sim
            .steps
            .iter()
            .map(|s| s.traffic.get(3).map_or(0, |t| t.messages))
            .sum();
        (words, msgs)
    };
    let (hw, hm) = top_msgs(&hier.sim);
    let (fw, fm) = top_msgs(&flat.sim);
    println!(
        "  hierarchical: T = {:>12.0}, WAN traffic = {hw} words in {hm} messages",
        hier.time
    );
    println!(
        "  flat:         T = {:>12.0}, WAN traffic = {fw} words in {fm} messages",
        flat.time
    );

    // Reduction is where the hierarchy shines: the payload shrinks at
    // every level, so only one small vector per campus crosses the WAN.
    let vectors: Vec<Vec<u32>> = (0..grid.num_procs())
        .map(|i| vec![i as u32 + 1; 50_000])
        .collect();
    let reduced = |vectors, strategy| {
        reduce::run(&exec, vectors, ReduceOp::Sum, RootPolicy::Fastest, strategy).expect("run")
    };
    let rh = reduced(vectors.clone(), Strategy::Hierarchical);
    let rf = reduced(vectors, Strategy::Flat);
    assert_eq!(rh.result, rf.result);
    println!("\nreduction of 10 x 50k-word vectors:");
    println!(
        "  hierarchical: T = {:>12.0}  ({} messages crossed the WAN)",
        rh.time,
        rh.sim
            .steps
            .iter()
            .map(|s| s.traffic.get(3).map_or(0, |t| t.messages))
            .sum::<u64>()
    );
    println!(
        "  flat:         T = {:>12.0}  ({} messages crossed the WAN)",
        rf.time,
        rf.sim
            .steps
            .iter()
            .map(|s| s.traffic.get(3).map_or(0, |t| t.messages))
            .sum::<u64>()
    );
    println!(
        "  speedup from exploiting the hierarchy: {:.2}x",
        rf.time / rh.time
    );
}
