//! Result files, the all-workloads suite, and `compare`.

use crate::api::{self, Json};
use crate::metrics::END_TO_END;
use crate::run::RunRecord;
use crate::stats;
use crate::workloads::WORKLOADS;

fn quote(s: &str) -> String {
    format!("\"{}\"", api::json_escape(s))
}

/// A JSON number; a value that is not finite (a ratio over zero) reads 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// The one-line result the driver reads from the end of standard output.
pub fn result_line(r: &RunRecord) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_object(&r.metrics)
    )
}

/// A run as a JSON object, with everything `compare` needs.
pub fn run_object(r: &RunRecord) -> String {
    let spread: Vec<String> = r
        .spread
        .iter()
        .map(|(name, v)| format!("{}: {}", quote(name), num(*v)))
        .collect();
    let failures: Vec<String> = r.failures.iter().map(|f| quote(f)).collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failures\": [{}], \"load_1m\": [{}, {}], \
         \"metrics\": {}, \"spread\": {{{}}}}}",
        quote(&r.workload),
        r.seed,
        r.seconds,
        r.trace as u8,
        r.failed == 0,
        r.attempted,
        r.failed,
        failures.join(", "),
        r.load_start,
        r.load_end,
        metrics_object(&r.metrics),
        spread.join(", ")
    )
}

/// Facts about the host and the build that every result carries.
pub fn host_object() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim())
        })
        .unwrap_or("unknown");
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(cpu),
        quote(&env("HBSP_BENCH_RUSTC")),
        quote(&env("HBSP_BENCH_COMMIT"))
    )
}

/// Human-readable listing of a run's metrics.
pub fn print_metrics(r: &RunRecord) {
    for (name, value, unit) in &r.metrics {
        let spread = r.spread.iter().find(|s| s.0 == *name);
        match spread {
            Some((_, s)) => println!(
                "  {name:<44} {value:>14.4} {unit:<8} (own spread {:.1} %)",
                s * 100.0
            ),
            None => println!("  {name:<44} {value:>14.4} {unit}"),
        }
    }
    for f in &r.failures {
        println!("  FAILED {f}");
    }
}

/// Run every workload end to end (`repeat` times, each with the next
/// seed) and traced (once), each run in a child process of its own so
/// `peak_rss_mb` belongs to one run, and write the combined result
/// file. Returns false if any run failed a check.
pub fn suite(seed: u64, seconds: u64, repeat: u64, out: &std::path::Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let end_to_end = (0..repeat).map(|i| (seed + i, "0"));
        for (seed, trace) in end_to_end.chain([(seed, "1")]) {
            let output = std::process::Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", trace, "--record"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let text = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = text.lines().collect();
            // With --record the last two lines are the driver's result
            // line and, before it, the full record.
            lines.pop();
            let record = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            if !output.status.success() {
                all_correct = false;
                eprintln!("{workload} --trace {trace}: exit {}", output.status);
            }
            if api::parse_json(record).is_ok() {
                runs.push(record.to_string());
            }
        }
    }
    let text = format!(
        "{{\"host\": {},\n \"runs\": [\n  {}\n ]}}\n",
        host_object(),
        runs.join(",\n  ")
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}

/// The runs of a result file: a suite's `runs`, or the file itself when
/// it holds a single run.
fn runs_of(doc: &Json) -> Vec<&Json> {
    match doc.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().collect(),
        None => vec![doc],
    }
}

fn find_runs<'a>(runs: &[&'a Json], workload: &str, trace: f64) -> Vec<&'a Json> {
    let wanted = |r: &&Json| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_f64) == Some(trace)
    };
    runs.iter().copied().filter(wanted).collect()
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Per-layer values that are exact: they must agree to the last digit.
const EXACT: [&str; 4] = [
    "harness.model_time",
    "harness.failed_share",
    "sched.batches",
    "sched.jobs_per_batch",
];

/// One side of a comparison: the median of a metric over a file's runs
/// of a workload, and its spread. With several runs (`--repeat`) the
/// spread is the interquartile range of their values over the median,
/// as the acceptance procedure takes it; with one run it is that run's
/// own block-to-block spread.
fn side(runs: &[&Json], name: &str) -> Option<(f64, f64)> {
    let values: Vec<f64> = runs.iter().filter_map(|r| metric(r, name)).collect();
    if values.is_empty() {
        return None;
    }
    let spread = match runs {
        [one] => one
            .get("spread")
            .and_then(|s| s.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        _ => stats::iqr_share(&values),
    };
    Some((stats::median(&values), spread))
}

/// Compare result file `b` (the change) against `a` (the parent): per
/// workload and end-to-end metric both medians, how much worse `b` is,
/// and the bound. Returns false if any pair is outside its bound, the
/// change fails more ops, or an exact value differs.
pub fn compare(a_text: &str, b_text: &str) -> Result<bool, String> {
    let a_doc = api::parse_json(a_text)?;
    let b_doc = api::parse_json(b_text)?;
    let (a_runs, b_runs) = (runs_of(&a_doc), runs_of(&b_doc));
    let mut ok = true;
    println!(
        "{:<22} {:<14} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        let a = find_runs(&a_runs, workload, 0.0);
        let b = find_runs(&b_runs, workload, 0.0);
        for m in &END_TO_END {
            let (Some((va, spread_a)), Some((vb, spread_b))) = (side(&a, m.name), side(&b, m.name))
            else {
                continue;
            };
            let worse = if m.better == "lower" {
                vb / va - 1.0
            } else {
                va / vb - 1.0
            };
            let spread = spread_a.max(spread_b);
            let verdict = if worse > m.bound {
                ok = false;
                "REGRESSED"
            } else if spread > m.bound {
                "unresolved"
            } else if worse < -m.bound {
                "improved"
            } else {
                "unchanged"
            };
            println!(
                "{workload:<22} {:<14} {va:>12.4} {vb:>12.4} {:>8.1}% {:>6.0}% {:>6.1}%  {verdict}",
                m.name,
                worse * 100.0,
                m.bound * 100.0,
                spread * 100.0
            );
        }
        let failed = |runs: &[&Json]| -> f64 {
            let count = |r: &&Json| r.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            runs.iter().map(count).sum()
        };
        if failed(&b) > failed(&a) {
            ok = false;
            println!(
                "{workload:<22} failed ops      {:>12} {:>12}  MORE FAILURES",
                failed(&a),
                failed(&b)
            );
        }
        let a = find_runs(&a_runs, workload, 1.0);
        let b = find_runs(&b_runs, workload, 1.0);
        let (Some(a), Some(b)) = (a.first(), b.first()) else {
            continue;
        };
        for name in EXACT {
            if let (Some(va), Some(vb)) = (metric(a, name), metric(b, name)) {
                if va != vb {
                    ok = false;
                    println!(
                        "{workload:<22} {name:<14} {va:>12} {vb:>12}  DIFFERS (must be exact)"
                    );
                }
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_json(workload: &str, op_ms: f64, ops_per_s: f64, spread: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": 0, \"failed\": 0, \"metrics\": {{\
             \"op_ms_p50\": {{\"value\": {op_ms}, \"unit\": \"ms\"}}, \
             \"ops_per_s\": {{\"value\": {ops_per_s}, \"unit\": \"1/s\"}}}}, \
             \"spread\": {{\"op_ms_p50\": {spread}, \"ops_per_s\": 0.01}}}}"
        )
    }

    #[test]
    fn compare_flags_a_regression_and_only_that() {
        let a = run_json("apps_threads", 10.0, 100.0, 0.01);
        assert!(compare(&a, &a).unwrap());
        // 5 % slower: inside the 25 % bound.
        assert!(compare(&a, &run_json("apps_threads", 10.5, 95.3, 0.01)).unwrap());
        // 40 % slower: outside.
        assert!(!compare(&a, &run_json("apps_threads", 14.0, 100.0, 0.01)).unwrap());
        // Throughput is higher-is-better.
        assert!(!compare(&a, &run_json("apps_threads", 10.0, 70.0, 0.01)).unwrap());
        assert!(compare(&a, &run_json("apps_threads", 10.0, 150.0, 0.01)).unwrap());
        // A noisy file is unresolved, not a failure.
        assert!(compare(&a, &run_json("apps_threads", 10.2, 100.0, 0.3)).unwrap());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunRecord {
            workload: "w".into(),
            seed: 1,
            seconds: 1,
            trace: false,
            attempted: 3,
            failed: 1,
            failures: vec!["op 2: \"bad\"".into()],
            metrics: vec![("op_ms_p50", 1.25, "ms")],
            spread: vec![("op_ms_p50", 0.02)],
            load_start: 0.1,
            load_end: 0.2,
        };
        let line = api::parse_json(&result_line(&r)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(3.0));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(metric(&line, "op_ms_p50"), Some(1.25));
        let full = api::parse_json(&run_object(&r)).unwrap();
        assert_eq!(
            full.get("failures")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert!(api::parse_json(&host_object()).is_ok());
    }
}
