//! `hbsp_check` — static verification of machine description files,
//! the schedules the collectives lower on them, and job-graph files.
//!
//! ```text
//! hbsp_check [--schedules] [--items N] <machine.hbsp>...
//! hbsp_check --jobs <graph.jobs>...
//!
//! options:
//!   --schedules   additionally lower all seven collectives (flat and
//!                 hierarchical strategies) on each valid machine and
//!                 verify every schedule statically
//!   --items N     problem size for --schedules      (default 100)
//!   --jobs        treat the files as job-graph files (the format
//!                 `hbsp_sched --jobs` executes) and lint them:
//!                 syntax, unknown dependency ids, dependency cycles,
//!                 zero-word payloads
//! ```
//!
//! Machine files are linted against the model's Table-1 invariants —
//! fastest processor has r = 1, children fractions sum to the cluster
//! share, the coordinator is the fastest machine in its subtree, L and
//! g positive, declared `k` matches the tree height — with
//! `file:line:col:`-style diagnostics. Every violation is reported, not
//! just the first. Job-graph files go through the same parser
//! `hbsp_sched` runs them with (`hbsp_bench::jobfile`), so a graph
//! that lints clean here cannot fail admission-time validation there.
//!
//! Exit status: 0 when everything is clean, 1 when any violation was
//! found (or a file could not be read/parsed), 2 on usage errors.
//!
//! Examples:
//!
//! ```text
//! cargo run -p hbsp-bench --bin hbsp_check -- machines/campus.hbsp machines/grid3.hbsp
//! cargo run -p hbsp-bench --bin hbsp_check -- --schedules --items 500 machines/*.hbsp
//! cargo run -p hbsp-bench --bin hbsp_check -- --jobs fixtures/jobs_1000.jobs
//! ```

use hbsp_bench::cli::Args;
use hbsp_check::lint_with_spans;
use hbsp_collectives::verify::verify_standard_lowerings;
use hbsp_core::topology;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: hbsp_check [--schedules] [--items N] <machine.hbsp>...\n\
         \x20      hbsp_check --jobs <graph.jobs>...\n\
         \x20 --schedules  also verify all collective lowerings on each valid machine\n\
         \x20 --items N    problem size for --schedules (default 100)\n\
         \x20 --jobs       lint job-graph files (syntax, unknown ids, cycles,\n\
         \x20              zero-word payloads) instead of machine files"
    );
    exit(2)
}

/// Lint job-graph files; returns the number of violations.
fn check_jobs(files: &[String]) -> usize {
    let mut violations = 0usize;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: error: cannot read: {e}");
                violations += 1;
                continue;
            }
        };
        let (jobs, mut diags) = hbsp_bench::jobfile::parse(&text);
        diags.extend(hbsp_bench::jobfile::validate(&jobs));
        diags.sort_by_key(|d| d.line);
        for d in &diags {
            eprintln!("{file}:{}: error: {}", d.line, d.message);
        }
        violations += diags.len();
        if diags.is_empty() {
            let edges: usize = jobs.iter().map(|pj| pj.job.blocked_by.len()).sum();
            println!("{file}: ok ({} jobs, {edges} dependency edges)", jobs.len());
        }
    }
    violations
}

fn main() {
    let mut args = Args::new(usage);
    let items: u64 = args.value("--items").unwrap_or(100);
    let schedules = args.flag("--schedules");
    let jobs_mode = args.flag("--jobs");
    let files = args.positional();
    if files.is_empty() || (jobs_mode && schedules) {
        usage();
    }
    if jobs_mode {
        let violations = check_jobs(&files);
        if violations > 0 {
            eprintln!("hbsp_check: {violations} violation(s) found");
            exit(1);
        }
        return;
    }

    let mut violations = 0usize;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{file}: error: cannot read: {e}");
                violations += 1;
                continue;
            }
        };
        let parsed = match topology::parse_unvalidated(&text) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{file}: error: {e}");
                violations += 1;
                continue;
            }
        };
        let diags = lint_with_spans(&parsed.tree, parsed.declared_k, &parsed.spans);
        for d in &diags {
            match d.span {
                Some((line, col)) => eprintln!("{file}:{line}:{col}: error: {}", d.violation),
                None => eprintln!("{file}: error: {}", d.violation),
            }
        }
        violations += diags.len();
        if !diags.is_empty() {
            continue; // don't lower schedules on a broken machine
        }
        println!(
            "{file}: ok (HBSP^{}, {} processors)",
            parsed.tree.height(),
            parsed.tree.num_procs()
        );
        if schedules {
            for run in verify_standard_lowerings(&parsed.tree, items) {
                if run.violations.is_empty() {
                    println!("{file}: {}: schedule verifies clean", run.name);
                } else {
                    for v in &run.violations {
                        eprintln!("{file}: {}: error: {v}", run.name);
                    }
                    violations += run.violations.len();
                }
            }
        }
    }
    if violations > 0 {
        eprintln!("hbsp_check: {violations} violation(s) found");
        exit(1);
    }
}
