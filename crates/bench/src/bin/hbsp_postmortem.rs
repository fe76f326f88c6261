//! `hbsp_postmortem` — inspect, diff, and re-render crash bundles.
//!
//! ```text
//! hbsp_postmortem [options] <bundle.jsonl>
//!
//! options:
//!   --diff OTHER.jsonl   compare against a second bundle; one line per
//!                        field that differs, exit 1 unless identical
//!   --ignore-engine      with --diff: tolerate differing "engine"
//!                        headers (the cross-engine conformance check —
//!                        a sim and a threads bundle of the same seeded
//!                        failure must agree on everything else)
//!   --chrome FILE        re-render the bundle as a Chrome trace
//!                        (steps + causal span tree) to FILE
//!   --events             also print the bundle's out-of-band events
//!   --log                also print the attached decision log
//! ```
//!
//! Exactly one bundle is named; a second one is a usage error.
//!
//! Default action: parse the bundle, run
//! [`PostmortemBundle::validate`], and print its one-paragraph summary
//! plus the recorded step range. The written Chrome trace is checked
//! with [`validate_chrome_trace`] before it touches disk.
//!
//! Exit status: 0 on success, 1 on validation failures or a dirty
//! diff, 2 on usage/IO errors.
//!
//! Example (inspecting what `hbsp_chaos --postmortem` dumped):
//!
//! ```text
//! cargo run -p hbsp-bench --bin hbsp_postmortem -- \
//!   pm/postmortem_campus_s3_sim.jsonl \
//!   --diff pm/postmortem_campus_s3_threads.jsonl --ignore-engine
//! ```

use hbsp_bench::cli::Args;
use hbsp_obs::{validate_chrome_trace, PostmortemBundle};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: hbsp_postmortem [options] <bundle.jsonl>\n\
         \x20 --diff OTHER.jsonl  compare bundles (exit 1 on differences)\n\
         \x20 --ignore-engine     with --diff: ignore the engine header\n\
         \x20 --chrome FILE       write a Chrome-trace rendering to FILE\n\
         \x20 --events            print out-of-band events\n\
         \x20 --log               print the decision log"
    );
    exit(2)
}

fn load(path: &str) -> PostmortemBundle {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("hbsp_postmortem: {path}: {e}");
        exit(2)
    });
    PostmortemBundle::parse(&text).unwrap_or_else(|e| {
        eprintln!("hbsp_postmortem: {path}: {e}");
        exit(2)
    })
}

fn main() {
    let mut args = Args::new(usage);
    let diff_path: Option<String> = args.value("--diff");
    let chrome: Option<String> = args.value("--chrome");
    let ignore_engine = args.flag("--ignore-engine");
    let show_events = args.flag("--events");
    let show_log = args.flag("--log");
    let [bundle_path] = &args.positional()[..] else {
        usage()
    };
    let bundle = load(bundle_path);

    let mut failures = 0usize;
    match bundle.validate() {
        Ok(()) => println!("{}", bundle.summary()),
        Err(e) => {
            eprintln!("hbsp_postmortem: {bundle_path}: invalid bundle: {e}");
            failures += 1;
        }
    }
    if let (Some(first), Some(last)) = (bundle.steps.first(), bundle.steps.last()) {
        println!(
            "steps {}..={} on {} processor(s), fault plan {}",
            first.step,
            last.step,
            first.procs(),
            if bundle.fault_plan.trim().is_empty() {
                "empty".to_string()
            } else {
                format!("({} line(s))", bundle.fault_plan.lines().count())
            }
        );
    }
    if show_events {
        for ev in &bundle.events {
            println!("event: {ev:?}");
        }
    }
    if show_log && !bundle.decision_log.is_empty() {
        print!("{}", bundle.decision_log);
    }

    if let Some(other_path) = &diff_path {
        let other = load(other_path);
        if let Err(e) = other.validate() {
            eprintln!("hbsp_postmortem: {other_path}: invalid bundle: {e}");
            failures += 1;
        }
        let lines: Vec<String> = bundle
            .diff(&other)
            .into_iter()
            .filter(|l| !(ignore_engine && l.starts_with("engine:")))
            .collect();
        if lines.is_empty() {
            println!(
                "bundles agree{}",
                if ignore_engine {
                    " (engine header ignored)"
                } else {
                    ""
                }
            );
        } else {
            for l in &lines {
                eprintln!("diff: {l}");
            }
            eprintln!(
                "hbsp_postmortem: bundles differ in {} field(s)",
                lines.len()
            );
            failures += 1;
        }
    }

    if let Some(out) = &chrome {
        let trace = bundle.chrome_trace();
        if let Err(e) = validate_chrome_trace(&trace) {
            eprintln!("hbsp_postmortem: rendered trace is invalid: {e}");
            failures += 1;
        } else if let Err(e) = std::fs::write(out, &trace) {
            eprintln!("hbsp_postmortem: {out}: {e}");
            exit(2)
        } else {
            println!("chrome trace written to {out}");
        }
    }

    if failures > 0 {
        exit(1)
    }
}
