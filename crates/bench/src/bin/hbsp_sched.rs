//! `hbsp_sched` — replay a job-graph file on a shared machine tree
//! through the multi-tenant scheduler, or generate one.
//!
//! ```text
//! hbsp_sched --machine <machine> --jobs <graph.jobs>
//!            [--engine sim|threads|both] [--serial] [--trace out.json]
//! hbsp_sched --generate N [--seed S]
//! ```
//!
//! `<machine>` is `testbed:<p>`, `testbed2` or a topology file, as for
//! `hbsp_run`. Job-graph files are line-oriented: one job per line,
//! `#` comments and blank lines ignored.
//!
//! ```text
//! <name> <kind> n=<words> [procs=<min>] [after=<id>,<id>,...] [seed=<u64>]
//! ```
//!
//! `<kind>` is any of the seven collectives (`gather`, `broadcast`,
//! `scatter`, `allgather`, `alltoall`, `reduce`, `scan`); `after`
//! references 0-based job ids, i.e. line positions among job lines.
//! The scheduler validates the DAG, so forward or cyclic references are
//! reported, not crashed on.
//!
//! With `--engine both` the graph is drained once per engine and the
//! two runs are compared for bit-identical per-job results and virtual
//! makespan — the scheduler's determinism contract.
//!
//! Exit status: 0 when every run is clean (and, for `both`, the engines
//! agree), 1 on scheduling/execution errors or dirty reports, 2 on
//! usage errors.
//!
//! Examples:
//!
//! ```text
//! cargo run -p hbsp-bench --bin hbsp_sched -- --generate 1000 --seed 42 > fixtures/jobs_1000.jobs
//! cargo run -p hbsp-bench --bin hbsp_sched -- --machine machines/campus.hbsp \
//!     --jobs fixtures/jobs_1000.jobs --engine both
//! ```

use hbsp_bench::cli::{self, Args, ENGINES};
use hbsp_sched::{CollectiveKind, Engine, Job, RunOptions, SchedReport, Scheduler};
use hbsplib::Executor;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: hbsp_sched --machine <machine> --jobs <file> [--engine sim|threads|both]\n\
         \x20                [--serial] [--trace out.json]\n\
         \x20      hbsp_sched --generate N [--seed S]\n\
         \x20 --machine M   testbed:<p>, testbed2 or a .hbsp topology file\n\
         \x20 --jobs F      job-graph file (format: the doc header of hbsp_sched.rs)\n\
         \x20 --engine E    sim (default), threads, or both (compare bit-identically)\n\
         \x20 --serial      one job per admission round (the batching control arm)\n\
         \x20 --trace F     write the batch/job/superstep spans as a Chrome trace JSON file\n\
         \x20 --generate N  print a deterministic N-job workflow graph to stdout\n\
         \x20 --seed S      seed for --generate (default 42)"
    );
    exit(2)
}

// ---- job-graph file parsing -----------------------------------------

/// Parse via the shared [`hbsp_bench::jobfile`] parser (the same one
/// `hbsp_check --jobs` lints with), exiting on the first diagnostic.
fn parse_jobs(path: &str) -> Vec<Job> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read job-graph file `{path}`: {e}");
        exit(1)
    });
    let (jobs, errors) = hbsp_bench::jobfile::parse(&text);
    if let Some(e) = errors.first() {
        eprintln!("{path}:{e}");
        exit(1)
    }
    jobs.into_iter().map(|pj| pj.job).collect()
}

// ---- deterministic graph generation ---------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        // splitmix64: full-period, seed-stable across platforms.
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[(self.next() % xs.len() as u64) as usize]
    }
}

/// Emit `count` jobs as fork-join blocks interleaved with the five
/// basic workflow patterns (fan, sequence, diamond, pipeline pairs,
/// independent singles), every `after` edge pointing backwards.
fn generate(count: usize, seed: u64) -> String {
    let mut rng = Rng(seed);
    let mut out = String::new();
    out.push_str(&format!(
        "# {count} jobs generated by `hbsp_sched --generate {count} --seed {seed}`\n\
         # <name> <kind> n=<words> [procs=<min>] [after=<ids>] [seed=<u64>]\n"
    ));
    fn emit(out: &mut String, rng: &mut Rng, id: &mut usize, after: &[usize]) -> usize {
        const SIZES: [u64; 4] = [8, 16, 32, 64];
        let kind = CollectiveKind::ALL[(rng.next() % 7) as usize];
        let n = rng.pick(&SIZES);
        let my = *id;
        out.push_str(&format!("j{my} {kind} n={n} seed={}", rng.next() % 1000));
        if !after.is_empty() {
            let ids: Vec<String> = after.iter().map(|d| d.to_string()).collect();
            out.push_str(&format!(" after={}", ids.join(",")));
        }
        out.push('\n');
        *id += 1;
        my
    }
    let mut id = 0usize;
    let mut block = 0usize;
    while id < count {
        let room = count - id;
        match block % 5 {
            // Fork-join: src -> {m1, m2, m3} -> join.
            0 if room >= 5 => {
                let src = emit(&mut out, &mut rng, &mut id, &[]);
                let mids: Vec<usize> = (0..3)
                    .map(|_| emit(&mut out, &mut rng, &mut id, &[src]))
                    .collect();
                emit(&mut out, &mut rng, &mut id, &mids);
            }
            // Fan: one source, three dependents.
            1 if room >= 4 => {
                let src = emit(&mut out, &mut rng, &mut id, &[]);
                for _ in 0..3 {
                    emit(&mut out, &mut rng, &mut id, &[src]);
                }
            }
            // Sequence: a four-stage chain.
            2 if room >= 4 => {
                let mut prev = emit(&mut out, &mut rng, &mut id, &[]);
                for _ in 0..3 {
                    prev = emit(&mut out, &mut rng, &mut id, &[prev]);
                }
            }
            // Diamond: a -> {b, c} -> d.
            3 if room >= 4 => {
                let a = emit(&mut out, &mut rng, &mut id, &[]);
                let b = emit(&mut out, &mut rng, &mut id, &[a]);
                let c = emit(&mut out, &mut rng, &mut id, &[a]);
                emit(&mut out, &mut rng, &mut id, &[b, c]);
            }
            // Pipeline pairs: two independent two-stage chains.
            4 if room >= 4 => {
                let a = emit(&mut out, &mut rng, &mut id, &[]);
                emit(&mut out, &mut rng, &mut id, &[a]);
                let b = emit(&mut out, &mut rng, &mut id, &[]);
                emit(&mut out, &mut rng, &mut id, &[b]);
            }
            // Tail: independent singles until the count is exact.
            _ => {
                emit(&mut out, &mut rng, &mut id, &[]);
            }
        }
        block += 1;
    }
    out
}

// ---- replay ----------------------------------------------------------

fn drain(sched: &Scheduler, engine: Engine, serial: bool, label: &str) -> SchedReport {
    let report = sched
        .run(&RunOptions {
            engine,
            serial,
            adapt: None,
        })
        .unwrap_or_else(|e| {
            eprintln!("hbsp_sched: {label}: {e}");
            exit(1)
        });
    if !report.clean() {
        eprintln!("hbsp_sched: {label}: report not clean (a job decoded garbage)");
        exit(1);
    }
    println!(
        "{label}: {} jobs in {} batches, makespan {:.0}, report clean",
        report.jobs.len(),
        report.batches.len(),
        report.total_time
    );
    report
}

fn main() {
    let mut args = Args::new(usage);
    let machine: Option<String> = args.value("--machine");
    let jobs_file: Option<String> = args.value("--jobs");
    let trace: Option<String> = args.value("--trace");
    let to_generate: Option<usize> = args.value("--generate");
    let seed = args.value("--seed").unwrap_or(42);
    let selected = args.choice("--engine", &ENGINES).unwrap_or(&["sim"]);
    let serial = args.flag("--serial");
    if !args.positional().is_empty() {
        usage()
    }
    if let Some(count) = to_generate {
        print!("{}", generate(count, seed));
        return;
    }
    let (Some(machine), Some(jobs_file)) = (&machine, &jobs_file) else {
        usage();
    };
    let tree = Arc::new(cli::machine(machine, usage));
    println!(
        "{machine}: HBSP^{}, {} processors",
        tree.height(),
        tree.num_procs()
    );

    let mut sched = Scheduler::new(tree.clone());
    for job in parse_jobs(jobs_file) {
        sched.submit(job);
    }

    // The scheduler's engines, each beside the executor that names it.
    let engines = [
        (Engine::Simulator, Executor::simulator(tree.clone())),
        (Engine::Threads, Executor::threads(tree.clone())),
    ];
    let reports: Vec<SchedReport> = (engines.iter())
        .filter(|(_, exec)| selected.contains(&exec.engine_name()))
        .map(|(engine, exec)| drain(&sched, *engine, serial, exec.engine_name()))
        .collect();
    let Some((report, others)) = reports.split_first() else {
        usage();
    };
    for other in others {
        let states_agree = (report.jobs.iter().zip(&other.jobs))
            .all(|(a, b)| a.states == b.states && a.leaves == b.leaves);
        if !states_agree || report.total_time != other.total_time {
            eprintln!("hbsp_sched: engines disagree (determinism contract broken)");
            exit(1);
        }
        println!("engines agree: bit-identical per-job results and makespan");
    }

    if let Some(path) = &trace {
        std::fs::write(path, report.chrome_trace()).unwrap_or_else(|e| {
            eprintln!("cannot write trace `{path}`: {e}");
            exit(1)
        });
        println!(
            "{path}: causal trace written ({} spans)",
            report.causal.len()
        );
    }
}
