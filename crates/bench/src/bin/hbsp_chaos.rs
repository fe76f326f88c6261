//! `hbsp_chaos` — randomized fault-injection harness for the HBSP^k
//! stack.
//!
//! ```text
//! hbsp_chaos [--seed S] [--runs N] [--ramps N] [--json]
//!            [--postmortem DIR] <machine.hbsp>...
//!
//! options:
//!   --seed S          base seed for fault-plan generation   (default 0)
//!   --runs N          fault plans per machine               (default 64)
//!   --ramps N         straggler-ramp plans per machine      (default 8)
//!   --json            one JSONL record per machine × seed on stdout
//!   --postmortem DIR  dump a PostmortemBundle (one per engine) for
//!                     every failed or violating run into DIR
//! ```
//!
//! For every machine × seed, a deterministic random [`FaultPlan`]
//! (crashes, stalls, stragglers, message drops/truncation) is scripted
//! into both engines and the same panic-free workload is run twice:
//!
//! 1. **Fail-fast parity** — the discrete-event simulator and the
//!    threaded runtime must produce the *same* result: the identical
//!    typed [`SimError`] or the identical virtual time and final
//!    states. A hang is impossible by construction (scripted stalls arm
//!    the barrier watchdog) and any divergence is a property violation.
//! 2. **Graceful degradation** — the same plan under
//!    [`RecoveryPolicy::Degrade`] must either complete on a survivor
//!    machine whose tree passes the `hbsp_check` machine lints, or
//!    refuse with a typed error (e.g. a cluster lost every leaf).
//!
//! `--ramps` additionally scripts deterministic *straggler-ramp* plans
//! (one processor's communication slows by a growing factor, the shape
//! the adaptive executor is built to detect) through the same two
//! properties — ramps never kill anyone, so these runs must complete
//! with bit-identical virtual times on both engines.
//!
//! Exit status: 0 when every run terminated with a verified outcome,
//! 1 on any property violation, 2 on usage errors.
//!
//! Example:
//!
//! ```text
//! cargo run -p hbsp-bench --bin hbsp_chaos -- --seed 0 --runs 64 machines/*.hbsp
//! ```

use hbsp_check::lint_machine;
use hbsp_core::{topology, MachineTree, ProcEnv, ProcId, SpmdContext, StepOutcome, SyncScope};
use hbsp_obs::FlightRecorder;
use hbsp_sim::{FaultPlan, SimError};
use hbsplib::{Executor, Program, RecoveryPolicy};
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: hbsp_chaos [--seed S] [--runs N] [--ramps N] [--json] \
         [--postmortem DIR] <machine.hbsp>...\n\
         \x20 --seed S          base seed for fault-plan generation (default 0)\n\
         \x20 --runs N          fault plans per machine (default 64)\n\
         \x20 --ramps N         straggler-ramp plans per machine (default 8)\n\
         \x20 --json            one JSONL record per machine × seed on stdout\n\
         \x20 --postmortem DIR  dump a PostmortemBundle per engine for every\n\
         \x20                   failed or violating run into DIR"
    );
    exit(2)
}

/// A deterministic straggler-ramp plan: one seeded processor slows by
/// a growing factor over a seeded window. Never lethal — both engines
/// must complete it with identical virtual times.
fn ramp_plan(seed: u64, tree: &MachineTree) -> FaultPlan {
    let mut rng = hbsp_sim::SplitMix64::new(seed ^ 0x5742_A4B1_7E11_AA02);
    let pid = ProcId(rng.below(tree.num_procs() as u64) as u32);
    let start = rng.below(3) as usize;
    let steps = 2 + rng.below(6) as usize;
    let factor = 2.0 + rng.below(5) as f64;
    let factor_step = 0.5 * (1 + rng.below(4)) as f64;
    FaultPlan::new().straggle_ramp(pid, start, steps, factor, factor_step)
}

/// The chaos workload: every processor gossips a word to every peer for
/// a few supersteps and counts what it hears. Machine-shape-agnostic
/// (it re-reads `nprocs` each step, so it runs unchanged on a degraded
/// tree) and panic-free (fault handling must come from the engines, not
/// from the program noticing odd inputs).
struct Gossip;

impl Program for Gossip {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        state: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *state = state.wrapping_mul(31).wrapping_add(m.payload.len() as u64);
        }
        if step >= 3 {
            return StepOutcome::Done;
        }
        for p in 0..env.nprocs {
            if p != env.pid.rank() {
                ctx.send(ProcId(p as u32), 0, &[0x5A; 8]);
            }
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// A comparable digest of one fail-fast run.
#[derive(Debug, PartialEq)]
enum RunDigest {
    Completed { time: f64, states: Vec<u64> },
    Failed(SimError),
}

fn digest(result: Result<(hbsplib::ExecOutcome, Vec<u64>), SimError>) -> RunDigest {
    match result {
        Ok((out, states)) => RunDigest::Completed {
            time: out.total_time(),
            states,
        },
        Err(e) => RunDigest::Failed(e),
    }
}

/// What one machine × seed chaos run produced (for reporting).
struct ChaosRecord {
    /// A property-violation description, or None for a verified outcome.
    violation: Option<String>,
    /// Degradations performed by the recovering run.
    recovery_events: usize,
    /// Engine runs the recovering attempt needed (0 on typed refusal).
    attempts: usize,
    /// Supersteps of the final successful attempt (0 on refusal).
    steps: usize,
    /// Postmortem bundle files written (with `--postmortem`).
    dumps: Vec<String>,
}

/// Write both engines' flight-recorder bundles for a dead or
/// violating run; returns the file paths written.
fn dump_bundles(
    dir: &str,
    stem: &str,
    seed: u64,
    reason: &str,
    tree: &MachineTree,
    plan: &FaultPlan,
    recorders: &[(&str, &FlightRecorder)],
) -> Vec<String> {
    let machine = tree.to_string();
    let faults = plan.render();
    let mut written = Vec::new();
    for (engine, fr) in recorders {
        let bundle = fr.bundle(reason, engine, &machine, &faults);
        let path = format!("{dir}/postmortem_{stem}_s{seed}_{engine}.jsonl");
        match std::fs::write(&path, bundle.to_jsonl()) {
            Ok(()) => written.push(path),
            Err(e) => eprintln!("hbsp_chaos: cannot write {path}: {e}"),
        }
    }
    written
}

/// One machine × one plan. `must_complete` marks plans with no lethal
/// fault (straggler ramps): both engines have to finish them, an error
/// outcome is itself a violation. With `postmortem` set, any failed or
/// violating run dumps each engine's [`FlightRecorder`] as a
/// `PostmortemBundle` JSONL file into that directory.
fn chaos_run(
    tree: &Arc<MachineTree>,
    plan: &FaultPlan,
    must_complete: bool,
    postmortem: Option<(&str, &str, u64)>,
) -> ChaosRecord {
    let mut rec_out = ChaosRecord {
        violation: None,
        recovery_events: 0,
        attempts: 0,
        steps: 0,
        dumps: Vec::new(),
    };

    // Property 1: both engines fail fast with identical outcomes. Both
    // run under an armed flight recorder — the always-on probe is part
    // of the configuration chaos exercises, and it is what a failed
    // run's forensics come from.
    let sim_fr = Arc::new(FlightRecorder::new());
    let thr_fr = Arc::new(FlightRecorder::new());
    let sim = digest(
        Executor::simulator(tree.clone())
            .faults(plan.clone())
            .probe(sim_fr.clone())
            .run(&Gossip),
    );
    let thr = digest(
        Executor::threads(tree.clone())
            .faults(plan.clone())
            .probe(thr_fr.clone())
            .run(&Gossip),
    );
    let dump = |reason: &str| {
        postmortem
            .map(|(dir, stem, seed)| {
                dump_bundles(
                    dir,
                    stem,
                    seed,
                    reason,
                    tree,
                    plan,
                    &[("sim", &sim_fr), ("threads", &thr_fr)],
                )
            })
            .unwrap_or_default()
    };
    if sim != thr {
        rec_out.violation = Some(format!(
            "engine divergence under plan {plan:?}: simulator {sim:?} vs threads {thr:?}"
        ));
        rec_out.dumps = dump("engine divergence");
        return rec_out;
    }
    if let RunDigest::Failed(e) = &sim {
        if must_complete {
            rec_out.violation = Some(format!(
                "non-lethal plan {plan:?} failed instead of completing: {e}"
            ));
        }
        // A fail-fast death is a verified outcome for random plans,
        // but it is exactly when forensics matter: dump both engines'
        // bundles (bit-identical for the same seeded failure).
        rec_out.dumps = dump(&e.to_string());
        if rec_out.violation.is_some() {
            return rec_out;
        }
    }

    // Property 2: degradation either verifiably completes or refuses
    // with a typed error.
    let recovering = Executor::simulator(tree.clone())
        .faults(plan.clone())
        .recovery(RecoveryPolicy::Degrade)
        .run_recovering(|_| Ok(Gossip));
    // A typed refusal is a verified outcome: the machine could not be
    // degraded (or the fault was not a death), never a hang.
    if let Ok(rec) = recovering {
        rec_out.recovery_events = rec.report.events.len();
        rec_out.attempts = rec.report.attempts;
        rec_out.steps = rec.outcome.sim.num_steps();
        let lints = lint_machine(&rec.tree, None);
        if !lints.is_empty() {
            rec_out.violation = Some(format!(
                "degraded tree fails machine lints under plan {plan:?}: {lints:?}"
            ));
        } else if let Err(e) = rec.tree.validate() {
            rec_out.violation = Some(format!("degraded tree fails validate: {e}"));
        }
    }
    rec_out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 0;
    let mut runs: u64 = 64;
    let mut ramps: u64 = 8;
    let mut json = false;
    let mut postmortem: Option<String> = None;
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--postmortem" => {
                postmortem = Some(it.next().cloned().unwrap_or_else(|| usage()));
            }
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--runs" => {
                runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--ramps" => {
                ramps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            f if f.starts_with('-') => usage(),
            f => files.push(f.to_string()),
        }
    }
    if files.is_empty() {
        usage();
    }
    if let Some(dir) = &postmortem {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("hbsp_chaos: cannot create {dir}: {e}");
            exit(2);
        }
    }

    let mut violations = 0usize;
    let mut dumped = 0usize;
    for file in &files {
        let tree = match std::fs::read_to_string(file)
            .map_err(|e| e.to_string())
            .and_then(|t| topology::parse(&t).map_err(|e| e.to_string()))
        {
            Ok(t) => Arc::new(t),
            Err(e) => {
                eprintln!("{file}: error: {e}");
                violations += 1;
                continue;
            }
        };
        let mut ok_runs = 0u64;
        let total = runs + ramps;
        for i in 0..total {
            let s = seed.wrapping_add(i);
            let (plan, shape, must_complete) = if i < runs {
                (FaultPlan::random(s, &tree), "random", false)
            } else {
                (ramp_plan(s, &tree), "ramp", true)
            };
            let stem: String = std::path::Path::new(file)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("machine")
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            let rec = chaos_run(
                &tree,
                &plan,
                must_complete,
                postmortem.as_deref().map(|dir| (dir, stem.as_str(), s)),
            );
            for path in &rec.dumps {
                eprintln!("{file}: seed {s} ({shape}): postmortem bundle: {path}");
            }
            dumped += rec.dumps.len();
            if json {
                use hbsp_obs::json::{record, Field::*};
                let mut fields = vec![
                    ("kind", Str("chaos")),
                    ("machine", Str(file)),
                    ("seed", Int(s)),
                    ("plan", Str(shape)),
                ];
                match &rec.violation {
                    Some(v) => {
                        fields.extend([("outcome", Str("violation")), ("violation", Str(v))])
                    }
                    None => fields.push(("outcome", Str("ok"))),
                }
                fields.extend([
                    ("recovery_events", Int(rec.recovery_events as u64)),
                    ("attempts", Int(rec.attempts as u64)),
                    ("steps", Int(rec.steps as u64)),
                ]);
                println!("{}", record(&fields));
            }
            if let Some(v) = rec.violation {
                eprintln!("{file}: seed {s} ({shape}): VIOLATION: {v}");
                violations += 1;
            } else {
                ok_runs += 1;
            }
        }
        if !json {
            println!(
                "{file}: {ok_runs}/{total} chaos runs ({runs} random, {ramps} straggler ramps) \
                 terminated with verified outcomes (HBSP^{}, {} processors)",
                tree.height(),
                tree.num_procs()
            );
        }
    }
    if dumped > 0 {
        eprintln!("hbsp_chaos: {dumped} postmortem bundle(s) written");
    }
    if violations > 0 {
        eprintln!("hbsp_chaos: {violations} violation(s) found");
        exit(1);
    }
}
