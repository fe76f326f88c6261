//! `hbsp_experiments` — regenerate any numbered experiment of the
//! reproduction (DESIGN.md's index E1–E11) as a plain-text table.
//!
//! ```text
//! hbsp_experiments <E1..E11|all> [--level 2]
//!
//!   E1   Figure 3(a): gather T_s / T_f, slow vs fast root
//!   E2   Figure 3(b): gather T_u / T_b, equal vs balanced workloads
//!   E3   Figure 4(a): broadcast T_s / T_f
//!   E4   Figure 4(b): broadcast T_u / T_b
//!   E5   Table 1: the model parameters, instantiated for the testbed
//!   E6   §4.4: HBSP^1 one- vs two-phase broadcast crossover
//!        (`--level 2` selects E7, as the old per-figure binary did)
//!   E7   §4.4: HBSP^2 one- vs two-phase super²-step
//!   E8   §4.3: HBSP^2 gather amortization
//!   E9   cost-model predictability, per collective
//!   E10  extension: gather T_u / T_c with comm-aware c_j
//!   E11  §6: sample sort, BSP-oblivious vs HBSP-aware configuration
//! ```
//!
//! Example: `cargo run --release -p hbsp-bench --bin hbsp_experiments -- E1`

use hbsp_bench::cli::Args;
use hbsp_bench::figures::{
    accuracy_table, amortization_table, crossover_table, hbsp2_phase_table, improvement_table,
};
use hbsp_bench::testbed::{input_kb, testbed};
use hbsp_bench::{
    broadcast_balance_improvement, broadcast_crossover, broadcast_root_improvement,
    gather_balance_improvement, gather_comm_aware_improvement, gather_root_improvement,
    hbsp2_amortization, hbsp2_phase_study, hbsp2_testbed, model_accuracy, FigurePoint,
    PAPER_SIZES_KB, TESTBED_PS,
};
use hbsp_collectives::plan::{RootPolicy, WorkloadPolicy};
use hbsp_collectives::CollectiveError;
use hbsp_core::topology;
use hbsplib::Executor;
use std::error::Error;
use std::process::exit;
use std::sync::Arc;

/// What an experiment returns: its table printed, or why it could not run.
type Printed = Result<(), Box<dyn Error>>;
type Experiment = (&'static str, fn() -> Printed);

const EXPERIMENTS: [Experiment; 11] = [
    ("E1", || {
        let pts = gather_root_improvement(&TESTBED_PS, &PAPER_SIZES_KB);
        figure("Figure 3(a) — gather, improvement factor T_s / T_f", pts)
    }),
    ("E2", || {
        let pts = gather_balance_improvement(&TESTBED_PS, &PAPER_SIZES_KB);
        figure("Figure 3(b) — gather, improvement factor T_u / T_b", pts)
    }),
    ("E3", || {
        let pts = broadcast_root_improvement(&TESTBED_PS, &PAPER_SIZES_KB);
        figure("Figure 4(a) — broadcast, improvement factor T_s / T_f", pts)
    }),
    ("E4", || {
        let pts = broadcast_balance_improvement(&TESTBED_PS, &PAPER_SIZES_KB);
        figure("Figure 4(b) — broadcast, improvement factor T_u / T_b", pts)
    }),
    ("E5", e5),
    ("E6", e6),
    ("E7", e7),
    ("E8", e8),
    ("E9", e9),
    ("E10", || {
        let pts = gather_comm_aware_improvement(&TESTBED_PS, &PAPER_SIZES_KB);
        figure(
            "E10 (extension) — gather, improvement factor T_u / T_c (comm-aware c_j)",
            pts,
        )
    }),
    ("E11", e11),
];

fn usage() -> ! {
    eprintln!("usage: hbsp_experiments <E1..E11|all> [--level 2]");
    exit(2)
}

fn main() {
    let mut args = Args::new(usage);
    let level: Option<u32> = args.value("--level");
    let selected = match (&args.positional()[..], level) {
        ([which], None) => which.clone(),
        ([e6], Some(2)) if e6 == "E6" => "E7".to_string(),
        _ => usage(),
    };
    let run = |(name, run): &Experiment| {
        run().unwrap_or_else(|e| {
            eprintln!("hbsp_experiments: {name}: {e}");
            exit(1)
        })
    };
    match EXPERIMENTS.iter().find(|(name, _)| *name == selected) {
        _ if selected == "all" => EXPERIMENTS.iter().for_each(run),
        Some(experiment) => run(experiment),
        None => usage(),
    }
}

/// Print one Figure-3/4-style sweep.
fn figure(title: &str, pts: Result<Vec<FigurePoint>, CollectiveError>) -> Printed {
    println!("{}", improvement_table(title, &pts?));
    Ok(())
}

fn e5() -> Printed {
    let tree = hbsp2_testbed(60_000.0)?;
    println!("Table 1 — HBSP^k parameters of the simulated HBSP^2 testbed\n");
    println!("g (fastest-machine time per word) = {}", tree.g());
    println!("k (communication levels)          = {}", tree.height());
    for level in (0..=tree.height()).rev() {
        let nodes = tree.level_nodes(level)?;
        println!("\nlevel {level}: m_{level} = {} machines", nodes.len());
        for &idx in nodes {
            let node = tree.node(idx);
            let p = node.params();
            println!(
                "  {:<10} {:<9} m_ij = {:<2} r = {:<5} L = {:<8} speed = {:.3}{}",
                node.machine_id().to_string(),
                node.name(),
                node.num_children(),
                p.r,
                p.l_sync,
                p.speed,
                node.proc_id()
                    .map(|id| format!("  ({id})"))
                    .unwrap_or_default(),
            );
        }
    }
    println!("\nTopology DSL round-trip of the same machine:\n");
    println!("{}", topology::to_dsl(&tree));
    Ok(())
}

fn e6() -> Printed {
    let rows = broadcast_crossover(&[2, 3, 4, 6, 8, 10], 400)?;
    println!("HBSP^1 broadcast: one- vs two-phase crossover (400 KB)");
    println!("{}", crossover_table(&rows));
    Ok(())
}

fn e7() -> Printed {
    let rows = hbsp2_phase_study(&[1_000.0, 10_000.0, 50_000.0, 200_000.0], 400)?;
    println!("HBSP^2 broadcast: one- vs two-phase super^2-step (400 KB)");
    println!("{}", hbsp2_phase_table(&rows));
    Ok(())
}

fn e8() -> Printed {
    let rows = hbsp2_amortization(&[25, 50, 100, 200, 400, 800, 1600], 60_000.0)?;
    println!("HBSP^2 gather amortization (campus L_{{2,0}} = 60000)");
    println!("{}", amortization_table(&rows));
    Ok(())
}

fn e9() -> Printed {
    for p in [4, 8, 10] {
        for kb in [100, 500, 1000] {
            let rows = model_accuracy(p, kb)?;
            println!("p = {p}, problem size = {kb} KB");
            println!("{}", accuracy_table(&rows));
        }
    }
    Ok(())
}

/// The same sample sort configured two ways on the same machine:
/// BSP-oblivious (arbitrary coordinator, equal shares) vs HBSP-aware
/// (fastest coordinator, `c_j`-balanced shares) — §6's claim that root
/// selection and workload distribution alone buy the improvement.
fn e11() -> Printed {
    println!("sample sort, 400 KB of integers: BSP-oblivious vs HBSP-aware configuration\n");
    println!(
        "{:>4} {:>14} {:>14} {:>12}",
        "p", "BSP config", "HBSP config", "improvement"
    );
    let items = input_kb(400);
    for p in TESTBED_PS {
        let exec = Executor::simulator(Arc::new(testbed(p)?));
        let sort = |workload, root| hbsp_apps::sort::run(&exec, &items, workload, root);
        // Arbitrary enumeration lands the BSP coordinator on a slow box.
        let bsp = sort(WorkloadPolicy::Equal, RootPolicy::Rank(p as u32 - 1))?.time;
        let hbsp = sort(WorkloadPolicy::Balanced, RootPolicy::Fastest)?.time;
        println!(
            "{:>4} {:>14.0} {:>14.0} {:>11.2}x",
            p,
            bsp,
            hbsp,
            bsp / hbsp
        );
    }
    println!(
        "\nsame algorithm, same machine — only the root selection and the\n\
         workload distribution changed (the paper's §6 conclusion)."
    );
    Ok(())
}
