//! `hbsp_adapt` — closed-loop adaptive execution harness.
//!
//! ```text
//! hbsp_adapt [options] <machine.hbsp>
//!
//! options:
//!   --engine sim|threads|both  engine(s) to drive            (default both)
//!   --collective K             broadcast|gather|scatter|allgather|alltoall
//!                                                            (default broadcast)
//!   --n N                      collective size hint          (default 256)
//!   --rounds R                 total rounds of the job       (default 12)
//!   --window W                 rounds per controller segment (default 2)
//!   --threshold T              drift threshold for re-plans  (default 0.6)
//!   --faults FILE              fault plan to inject (FaultPlan text format)
//!   --log FILE                 write the adaptive decision log to FILE
//!   --postmortem DIR           on a failed run, dump the attached
//!                              PostmortemBundle to DIR as JSONL
//!                              (inspect with hbsp_postmortem)
//!   --require-win              exit 1 unless adaptive beats static on
//!                              every selected engine
//!   --json                     one JSONL record per engine on stdout
//! ```
//!
//! Runs `R` rounds of the chosen collective as a
//! [`RepeatedCollective`] job through hbsplib's [`AdaptiveExecutor`]
//! twice per engine: once closed-loop (calibrate → re-tune →
//! re-balance at every `W`-round boundary whose drift exceeds `T`) and
//! once as the static control arm (identical segmentation, infinite
//! threshold). With `--engine both` the adaptive decision logs of the
//! two engines are additionally asserted byte-identical — the
//! controller's determinism contract.
//!
//! Exit status: 0 on success, 1 on a broken contract (divergent logs,
//! or `--require-win` unmet), 2 on usage errors.
//!
//! Example (the CI `adaptive` job):
//!
//! ```text
//! cargo run -p hbsp-bench --bin hbsp_adapt -- \
//!   --engine both --faults fixtures/straggler_ramp.faults \
//!   --require-win --log decisions.log machines/campus.hbsp
//! ```

use hbsp_collectives::{CollectiveKind, RepeatedCollective};
use hbsp_core::topology;
use hbsp_sim::FaultPlan;
use hbsplib::{AdaptiveConfig, AdaptiveExecutor, AdaptiveOutcome, Executor};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: hbsp_adapt [options] <machine.hbsp>\n\
         \x20 --engine sim|threads|both  engines to drive (default both)\n\
         \x20 --collective K             broadcast|gather|scatter|allgather|alltoall\n\
         \x20 --n N                      collective size hint (default 256)\n\
         \x20 --rounds R                 total rounds (default 12)\n\
         \x20 --window W                 rounds per segment (default 2)\n\
         \x20 --threshold T              drift threshold (default 0.6)\n\
         \x20 --faults FILE              inject a fault plan\n\
         \x20 --log FILE                 write the decision log to FILE\n\
         \x20 --postmortem DIR           dump crash bundles to DIR on failure\n\
         \x20 --require-win              exit 1 unless adaptive beats static\n\
         \x20 --json                     JSONL records on stdout"
    );
    exit(2)
}

struct EngineResult {
    name: &'static str,
    adaptive: AdaptiveOutcome,
    static_arm: AdaptiveOutcome,
}

/// Write the crash bundle attached to a failed run (if any) to
/// `DIR/postmortem_adapt_<arm>_<engine>.jsonl` for `hbsp_postmortem`.
fn dump_bundle(dir: &Option<String>, engine: &str, arm: &str, err: &hbsplib::AdaptiveError) {
    let (Some(dir), Some(bundle)) = (dir, err.bundle()) else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("hbsp_adapt: {dir}: {e}");
        return;
    }
    let path = format!("{dir}/postmortem_adapt_{arm}_{engine}.jsonl");
    match std::fs::write(&path, bundle.to_jsonl()) {
        Ok(()) => eprintln!("hbsp_adapt: postmortem bundle written to {path}"),
        Err(e) => eprintln!("hbsp_adapt: {path}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut engine = "both".to_string();
    let mut collective = CollectiveKind::Broadcast;
    let mut n: u64 = 256;
    let mut rounds: usize = 12;
    let mut window: usize = 2;
    let mut threshold: f64 = 0.6;
    let mut faults = FaultPlan::new();
    let mut log_file: Option<String> = None;
    let mut postmortem: Option<String> = None;
    let mut require_win = false;
    let mut json = false;
    let mut machine: Option<String> = None;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match a.as_str() {
            "--engine" => engine = value(),
            "--collective" => {
                collective = CollectiveKind::parse(&value()).unwrap_or_else(|| usage())
            }
            "--n" => n = value().parse().unwrap_or_else(|_| usage()),
            "--rounds" => rounds = value().parse().unwrap_or_else(|_| usage()),
            "--window" => window = value().parse().unwrap_or_else(|_| usage()),
            "--threshold" => threshold = value().parse().unwrap_or_else(|_| usage()),
            "--faults" => {
                let path = value();
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("hbsp_adapt: {path}: {e}");
                    exit(2)
                });
                faults = FaultPlan::parse(&text).unwrap_or_else(|e| {
                    eprintln!("hbsp_adapt: {path}: {e}");
                    exit(2)
                });
            }
            "--log" => log_file = Some(value()),
            "--postmortem" => postmortem = Some(value()),
            "--require-win" => require_win = true,
            "--json" => json = true,
            "--help" | "-h" => usage(),
            f if f.starts_with('-') => usage(),
            f => machine = Some(f.to_string()),
        }
    }
    let Some(machine) = machine else { usage() };
    let engines: Vec<&str> = match engine.as_str() {
        "both" => vec!["sim", "threads"],
        one => vec![one],
    };

    let tree = match std::fs::read_to_string(&machine)
        .map_err(|e| e.to_string())
        .and_then(|t| topology::parse(&t).map_err(|e| e.to_string()))
    {
        Ok(t) => Arc::new(t),
        Err(e) => {
            eprintln!("hbsp_adapt: {machine}: {e}");
            exit(2)
        }
    };

    let job = RepeatedCollective::new(collective, n, 3);
    let cfg = AdaptiveConfig {
        window,
        drift_threshold: threshold,
        calibration_trim: AdaptiveConfig::default().calibration_trim,
    };

    let mut failures = 0usize;
    let mut results: Vec<EngineResult> = Vec::new();
    for name in engines {
        let exec = Executor::from_engine_name(name, tree.clone())
            .unwrap_or_else(|| usage())
            .faults(faults.clone());
        let name = exec.engine_name();
        let runner = AdaptiveExecutor::new(exec).config(cfg);
        let adaptive = runner.run(&job, rounds).unwrap_or_else(|e| {
            eprintln!("hbsp_adapt: {name}: adaptive run failed: {e}");
            dump_bundle(&postmortem, name, "adaptive", &e);
            exit(1)
        });
        let static_arm = runner.run_static(&job, rounds).unwrap_or_else(|e| {
            eprintln!("hbsp_adapt: {name}: static run failed: {e}");
            dump_bundle(&postmortem, name, "static", &e);
            exit(1)
        });
        let win = adaptive.total_time < static_arm.total_time;
        if json {
            use hbsp_obs::json::{record, Field::*};
            println!(
                "{}",
                record(&[
                    ("kind", Str("adapt")),
                    ("machine", Str(&machine)),
                    ("engine", Str(name)),
                    ("collective", Str(collective.name())),
                    ("rounds", Int(rounds as u64)),
                    ("window", Int(window as u64)),
                    ("threshold", Num(threshold)),
                    ("adaptive_time", Num(adaptive.total_time)),
                    ("static_time", Num(static_arm.total_time)),
                    ("replans", Int(adaptive.replans as u64)),
                    ("segments", Int(adaptive.segments as u64)),
                    ("win", Bool(win)),
                ])
            );
        } else {
            println!(
                "{name}: adaptive T = {:.1} ({} re-plans over {} segments), \
                 static T = {:.1} -> {}",
                adaptive.total_time,
                adaptive.replans,
                adaptive.segments,
                static_arm.total_time,
                if win { "adaptive wins" } else { "no win" }
            );
        }
        if require_win && !win {
            eprintln!(
                "hbsp_adapt: {name}: adaptive ({}) did not beat static ({})",
                adaptive.total_time, static_arm.total_time
            );
            failures += 1;
        }
        results.push(EngineResult {
            name,
            adaptive,
            static_arm,
        });
    }

    // The determinism contract: the controller saw the same telemetry
    // and made the same decisions on every engine.
    if results.len() == 2 {
        let (a, b) = (&results[0], &results[1]);
        if a.adaptive.decision_log() != b.adaptive.decision_log() {
            eprintln!(
                "hbsp_adapt: decision logs diverge between {} and {}:\n--- {} ---\n{}\
                 --- {} ---\n{}",
                a.name,
                b.name,
                a.name,
                a.adaptive.decision_log(),
                b.name,
                b.adaptive.decision_log()
            );
            failures += 1;
        }
        if a.static_arm.total_time != b.static_arm.total_time {
            eprintln!(
                "hbsp_adapt: static virtual time diverges: {} vs {}",
                a.static_arm.total_time, b.static_arm.total_time
            );
            failures += 1;
        }
    }

    if let (Some(path), Some(r)) = (&log_file, results.first()) {
        let mut text = String::new();
        for line in r.adaptive.decision_log().lines() {
            text.push_str(line);
            text.push('\n');
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("hbsp_adapt: {path}: {e}");
            exit(1);
        }
    }
    if !json {
        if let Some(r) = results.first() {
            print!("{}", r.adaptive.decision_log());
        }
    }
    if failures > 0 {
        eprintln!("hbsp_adapt: {failures} failure(s)");
        exit(1);
    }
}
