//! The repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! hbsp-benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! hbsp-benchmark [--seed N] [--seconds S] [--repeat R] [--out FILE]   every workload, both ways
//! hbsp-benchmark --layers [--seconds S]                     the per-layer micro-suite alone
//! hbsp-benchmark compare A.json B.json
//! hbsp-benchmark manifest                                   print BENCHMARK.json
//! ```

mod api;
mod gen;
mod layers;
mod metrics;
mod oracle;
mod report;
mod run;
mod stats;
mod trace;
mod workloads;

#[cfg(test)]
mod tests;

use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
    format!(
        "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--layers] [--out FILE]\n\
         \x20      run.sh [--seed N] [--seconds S] [--repeat R] [--out FILE]\n\
         \x20      run.sh compare A.json B.json\n\
         \x20      run.sh manifest\n\
         workloads: {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("hbsp-benchmark: {why}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(false)` means the benchmark ran and a check failed.
fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err(usage());
            };
            let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
            return report::compare(&read(a)?, &read(b)?);
        }
        Some("manifest") => {
            print!("{}", metrics::manifest());
            return Ok(true);
        }
        _ => {}
    }

    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = metrics::RUN_SECONDS;
    let mut trace = false;
    let mut layers_only = false;
    let mut record = false;
    let mut repeat = 1u64;
    let mut out: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} takes {what}\n{}", usage()))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a workload name")?),
            "--seed" => seed = value("a number")?.parse().map_err(|_| usage())?,
            "--seconds" => seconds = value("a number")?.parse().map_err(|_| usage())?,
            "--out" => out = Some(value("a path")?),
            "--repeat" => repeat = value("a number")?.parse().map_err(|_| usage())?,
            "--layers" => layers_only = true,
            // Hidden: print the full run record before the result line
            // (how the suite collects its children's results).
            "--record" => record = true,
            "--trace" => {
                // `--trace 0|1` for the driver; a bare `--trace` means 1.
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }

    if layers_only {
        for (name, value) in layers::run(Duration::from_secs(seconds))?.metrics {
            if let Some((_, unit, _)) = metrics::PER_LAYER.iter().find(|m| m.0 == name) {
                println!("  {name:<44} {value:>14.4} {unit}");
            }
        }
        return Ok(true);
    }

    let Some(workload) = workload else {
        let out = out.map_or_else(
            || api::repo_root().join("benchmark/out/results.json"),
            std::path::PathBuf::from,
        );
        return report::suite(seed, seconds, repeat.max(1), &out);
    };
    let args = run::RunArgs {
        workload,
        seed,
        seconds,
    };
    let result = if trace {
        run::traced(&args)?
    } else {
        run::end_to_end(&args)?
    };
    report::print_metrics(&result);
    if let Some(path) = out {
        let text = format!(
            "{{\"host\": {},\n \"runs\": [\n  {}\n ]}}\n",
            report::host_object(),
            report::run_object(&result)
        );
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    if record {
        println!("{}", report::run_object(&result));
    }
    println!("{}", report::result_line(&result));
    Ok(result.failed == 0)
}
