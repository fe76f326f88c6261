//! Quickstart: describe a heterogeneous cluster, run the paper's gather
//! on it, and compare the cost model's prediction with simulated time.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hbsp::prelude::*;
use hbsp_collectives::gather;
use hbsp_collectives::plan::WorkloadPolicy;
use hbsp_collectives::predict;
use std::sync::Arc;

fn main() {
    // 1. Describe the machine. Three workstations on one LAN: the
    //    fastest (r = 1, speed = 1), a mid-range box, and an old one.
    //    `g` is the time for the fastest machine to inject one word;
    //    `L` the barrier cost.
    let machine = TreeBuilder::flat(1.0, 2_000.0, &[(1.0, 1.0), (2.0, 0.55), (3.5, 0.3)])
        .expect("valid machine");
    // The engine it runs on: the simulator here; `Executor::threads`
    // runs the same calls on one OS thread per processor.
    let exec = Executor::simulator(Arc::new(machine));
    let machine = exec.tree();
    println!(
        "machine: HBSP^{} with {} processors",
        machine.height(),
        machine.num_procs()
    );
    println!(
        "fastest = {}, slowest = {}\n",
        machine.fastest_proc(),
        machine.slowest_proc()
    );

    // 2. Gather 64k integers at the fastest processor (the model's
    //    recommended root), with equal shares.
    let items: Vec<u32> = (0..65_536).collect();
    let fast = gather::run(&exec, &items, GatherPlan::fast_root()).expect("run");
    assert_eq!(fast.result, items);
    println!("gather at P_f (equal shares):   T = {:>10.0}", fast.time);

    // 3. The adversarial choice: root at the slowest machine.
    let slow = gather::run(&exec, &items, GatherPlan::slow_root()).expect("run");
    println!("gather at P_s (equal shares):   T = {:>10.0}", slow.time);
    println!(
        "improvement factor T_s/T_f:     {:>10.3}\n",
        slow.time / fast.time
    );

    // 4. Balanced workloads: shares proportional to machine speed.
    let balanced = gather::run(&exec, &items, GatherPlan::balanced()).expect("run");
    println!(
        "gather at P_f (balanced c_j):   T = {:>10.0}",
        balanced.time
    );

    // 5. What the HBSP^k cost model predicts (Section 4.2's formula).
    let predicted = predict::gather_flat(
        machine,
        items.len() as u64,
        machine.fastest_proc(),
        WorkloadPolicy::Equal,
    );
    println!("\ncost model prediction for the fast-root gather:");
    println!("{predicted}");
    println!(
        "simulated / predicted = {:.3} (the simulator adds pack/unpack \
         pipelining the model abstracts)",
        fast.time / predicted.total()
    );
}
