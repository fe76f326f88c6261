//! Tuning a broadcast with the HBSP^k cost model (§4.4): the tuner
//! lowers every candidate plan to a communication schedule, prices the
//! schedules, and picks the cheapest — then we verify the choice by
//! simulating the same schedules. Because prediction and execution read
//! the same IR, the ranking is of the actual programs.
//!
//! ```text
//! cargo run --example collective_tuning
//! ```

use hbsp::prelude::*;
use hbsp_collectives::broadcast::{self, BroadcastPlan};
use hbsp_collectives::plan::{PhasePolicy, Strategy};
use hbsp_collectives::tune;
use std::sync::Arc;

fn machine(p: usize, r_s: f64) -> MachineTree {
    // p machines whose slowness ramps from 1 to r_s.
    let procs: Vec<(f64, f64)> = (0..p)
        .map(|i| {
            let r = 1.0 + (r_s - 1.0) * i as f64 / (p - 1).max(1) as f64;
            (r, 1.0 / r)
        })
        .collect();
    TreeBuilder::flat(1.0, 2_000.0, &procs).expect("valid machine")
}

fn plan_name(plan: &BroadcastPlan) -> String {
    match plan.strategy {
        Strategy::Flat => format!("flat/{}", phase_name(plan.top_phase)),
        Strategy::Hierarchical => format!(
            "hier/{}+{}",
            phase_name(plan.top_phase),
            phase_name(plan.cluster_phase)
        ),
    }
}

fn phase_name(p: PhasePolicy) -> &'static str {
    match p {
        PhasePolicy::OnePhase => "1ph",
        PhasePolicy::TwoPhase => "2ph",
    }
}

fn main() {
    let n = 50_000u64;
    let items: Vec<u32> = (0..n as u32).collect();
    println!("broadcast of {n} words: schedule-based autotuning\n");
    println!(
        "{:>4} {:>6} | {:>12} | {:>12} {:>12} {:>10} | agree",
        "p", "r_s", "tuned plan", "sim 1-ph", "sim 2-ph", "winner"
    );
    let mut agreements = 0;
    let mut rows = 0;
    for p in [2usize, 3, 4, 6, 8, 12, 16] {
        for r_s in [1.5f64, 3.0, 6.0] {
            let exec = Executor::simulator(Arc::new(machine(p, r_s)));
            let best = tune::best_broadcast(exec.tree(), n).expect("rankable");
            let sim_one = broadcast::run(&exec, &items, BroadcastPlan::one_phase())
                .expect("run")
                .time;
            let sim_two = broadcast::run(&exec, &items, BroadcastPlan::two_phase())
                .expect("run")
                .time;
            let winner = if sim_one < sim_two {
                PhasePolicy::OnePhase
            } else {
                PhasePolicy::TwoPhase
            };
            let agree = best.plan.top_phase == winner;
            agreements += agree as usize;
            rows += 1;
            println!(
                "{:>4} {:>6.1} | {:>12} | {:>12.0} {:>12.0} {:>10} | {}",
                p,
                r_s,
                plan_name(&best.plan),
                sim_one,
                sim_two,
                phase_name(winner),
                if agree { "yes" } else { "NO" }
            );
        }
    }
    println!(
        "\nthe tuner picked the simulated winner in {agreements}/{rows} configurations \
         ({}%)",
        100 * agreements / rows
    );
    println!(
        "(disagreements, when they occur, cluster at the crossover where \
         the two designs are within a few percent of each other)\n"
    );

    // On a clustered machine the same tuner discovers that hierarchy
    // pays: at mid-range n, confining traffic and synchronization below
    // the expensive campus backbone beats any flat plan (for tiny n the
    // extra supersteps don't amortize; for huge n the flat two-phase
    // pipeline wins back — exactly §4.3's amortization argument).
    let campus =
        hbsp_core::topology::parse(include_str!("../machines/campus.hbsp")).expect("valid machine");
    let n_campus = 10_000u64;
    println!("candidate ranking on machines/campus.hbsp at n = {n_campus}:");
    for c in tune::rank_broadcast(&campus, n_campus).expect("rankable") {
        println!("  {:>12}  predicted {:>12.0}", plan_name(&c.plan), c.cost);
    }
    let strategy = tune::best_strategy(&campus, n_campus).expect("rankable");
    println!("\ntuned strategy: {strategy:?}");
    assert_eq!(strategy, Strategy::Hierarchical);
}
