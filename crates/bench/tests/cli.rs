//! End-to-end tests of the `hbsp_run`, `hbsp_experiments`, `hbsp_chaos`,
//! `hbsp_adapt` and `hbsp_postmortem` CLI binaries.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hbsp_run"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn gather_on_testbed() {
    let (stdout, _, ok) = run(&["testbed:4", "gather", "--kb", "10"]);
    assert!(ok);
    assert!(stdout.contains("HBSP^1 with 4 processors"), "{stdout}");
    assert!(stdout.contains("model time"), "{stdout}");
    assert!(stdout.contains("supersteps      : 2"), "{stdout}");
}

/// `--trace` charts the plan that was asked for: a hierarchical gather
/// shows its level-scoped supersteps, not the flat program's single one.
#[test]
fn traced_gather_prints_gantt() {
    let (stdout, _, ok) = run(&[
        "testbed2",
        "gather",
        "--strategy",
        "hier",
        "--kb",
        "10",
        "--trace",
    ]);
    assert!(ok);
    assert!(stdout.contains("scope Level(1)"), "{stdout}");
    assert!(stdout.contains("activity"), "{stdout}");
    assert!(stdout.contains("P0 |"), "{stdout}");
}

#[test]
fn hierarchical_reduce_on_testbed2() {
    let (stdout, _, ok) = run(&["testbed2", "reduce", "--strategy", "hier", "--kb", "20"]);
    assert!(ok);
    assert!(stdout.contains("HBSP^2 with 10 processors"), "{stdout}");
    // Hierarchical reduce: level-1 step then level-2 step.
    assert!(stdout.contains("scope Level(1)"), "{stdout}");
    assert!(stdout.contains("scope Level(2)"), "{stdout}");
}

#[test]
fn bad_arguments_exit_nonzero_with_usage() {
    let (_, stderr, ok) = run(&["testbed:4"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (_, stderr, ok) = run(&["testbed:4", "gather", "--bogus"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn traced_scatter_prints_gantt() {
    let (stdout, _, ok) = run(&["testbed:4", "scatter", "--trace"]);
    assert!(ok);
    assert!(stdout.contains("activity"), "{stdout}");
    assert!(stdout.contains("P0 |"), "{stdout}");
}

#[test]
fn missing_machine_file_reports_cleanly() {
    let (_, stderr, ok) = run(&["/nonexistent/machine.hbsp", "gather"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read machine file"), "{stderr}");
}

#[test]
fn experiments_are_selected_by_number() {
    let experiments = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_hbsp_experiments"))
            .args(args)
            .output()
            .expect("binary runs")
    };
    let out = experiments(&["E5"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("Table 1"), "{stdout}");
    for bad in [&[][..], &["E12"], &["E5", "--level", "2"]] {
        let out = experiments(bad);
        assert!(!out.status.success(), "{bad:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

fn chaos(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hbsp_chaos"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn chaos_terminates_with_verified_outcomes_on_shipped_machines() {
    let campus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/campus.hbsp");
    let (stdout, stderr, ok) = chaos(&["--seed", "7", "--runs", "8", "--ramps", "4", campus]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("12/12 chaos runs (8 random, 4 straggler ramps)"),
        "{stdout}"
    );
}

#[test]
fn chaos_usage_and_bad_files_exit_nonzero() {
    let (_, stderr, ok) = chaos(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (_, stderr, ok) = chaos(&["/nonexistent/machine.hbsp"]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

fn postmortem(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_hbsp_postmortem"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// The forensics acceptance path end to end: a seeded chaos crash
/// dumps one `PostmortemBundle` per engine, `hbsp_postmortem`
/// validates and renders them, and the two bundles are bit-identical
/// except for the self-identifying engine header.
#[test]
fn chaos_crashes_dump_bundles_that_postmortem_validates_and_diffs_clean() {
    let campus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/campus.hbsp");
    let dir = std::env::temp_dir().join(format!("hbsp_pm_cli_{}", std::process::id()));
    let dir_s = dir.to_str().expect("utf-8 temp dir");
    // Seed 0 on campus produces crashing fault plans within a few runs.
    let (stdout, stderr, ok) =
        chaos(&["--seed", "0", "--runs", "6", "--postmortem", dir_s, campus]);
    assert!(ok, "{stderr}");
    let _ = stdout;
    assert!(stderr.contains("postmortem bundle(s) written"), "{stderr}");

    let mut pairs = 0;
    for entry in std::fs::read_dir(&dir).expect("dump dir exists") {
        let path = entry.expect("dir entry").path();
        let p = path.to_str().expect("utf-8 path");
        if !p.ends_with("_sim.jsonl") {
            continue;
        }
        pairs += 1;
        let other = p.replace("_sim.jsonl", "_threads.jsonl");
        // Validate + summarize both.
        let (stdout, stderr, ok) = postmortem(&[p]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("sim bundle at step"), "{stdout}");
        // Without --ignore-engine the engine header differs: exit 1.
        let (_, stderr, ok) = postmortem(&[p, "--diff", &other]);
        assert!(!ok, "engine headers must differ");
        assert!(stderr.contains("engine:"), "{stderr}");
        // With it, the bundles are bit-identical.
        let (stdout, stderr, ok) = postmortem(&[p, "--diff", &other, "--ignore-engine"]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("bundles agree"), "{stdout}");
        // And the re-rendered Chrome trace validates before writing.
        let trace = format!("{p}.trace.json");
        let (stdout, stderr, ok) = postmortem(&[p, "--chrome", &trace]);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("chrome trace written"), "{stdout}");
        assert!(std::fs::metadata(&trace).expect("trace file").len() > 0);
    }
    assert!(pairs > 0, "seeded chaos produced no crash bundles");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn postmortem_usage_and_bad_input_exit_nonzero() {
    let (_, stderr, ok) = postmortem(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");
    let (_, stderr, ok) = postmortem(&["/nonexistent/bundle.jsonl"]);
    assert!(!ok);
    assert!(stderr.contains("No such file"), "{stderr}");
}

/// `--trace` output, byte for byte, from the last commit whose engines
/// recorded timelines themselves (`.trace(true)`): the chart and the
/// activity totals are now views over a recorder's steps, and must not
/// have moved.
#[test]
fn traced_runs_on_the_machine_files_print_what_they_always_printed() {
    let campus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/campus.hbsp");
    let grid3 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/grid3.hbsp");
    let gather = ["gather", "--strategy", "hier", "--kb", "20", "--trace"];
    let broadcast = ["broadcast", "--strategy", "flat", "--kb", "20", "--trace"];
    for (machine, op, golden) in [
        (
            campus,
            gather,
            include_str!("golden/hbsp_run_trace_campus.stdout"),
        ),
        (
            grid3,
            broadcast,
            include_str!("golden/hbsp_run_trace_grid3.stdout"),
        ),
    ] {
        let args: Vec<&str> = [machine].into_iter().chain(op).collect();
        let (stdout, stderr, ok) = run(&args);
        assert!(ok && stderr.is_empty(), "{stderr}");
        assert_eq!(stdout, golden);
    }
}

/// The same pin for `hbsp_trace` on the simulator: the JSONL stream on
/// stdout, and the drift table, metrics snapshot and Gantt chart on
/// stderr.
#[test]
fn hbsp_trace_streams_what_it_always_streamed() {
    let out = Command::new(env!("CARGO_BIN_EXE_hbsp_trace"))
        .arg(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../machines/campus.hbsp"
        ))
        .args(["gather", "--strategy", "hier", "--kb", "20"])
        .args([
            "--engine",
            "sim",
            "--format",
            "jsonl",
            "--gantt",
            "--calibrate",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        include_str!("golden/hbsp_trace_gantt_jsonl_campus.stdout")
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        include_str!("golden/hbsp_trace_gantt_jsonl_campus.stderr")
    );
}

#[test]
fn all_operations_run_on_a_machine_file() {
    let machine = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/campus.hbsp");
    for op in [
        "gather",
        "broadcast",
        "scatter",
        "allgather",
        "alltoall",
        "reduce",
        "scan",
    ] {
        let (stdout, stderr, ok) = run(&[machine, op, "--kb", "5"]);
        assert!(ok, "{op} failed: {stderr}");
        assert!(stdout.contains("model time"), "{op}: {stdout}");
    }
}

/// Every `--json` line of `hbsp_run`, `hbsp_chaos` and `hbsp_adapt`
/// is one JSON object, whatever values it carries: an infinite
/// `--threshold` is written as `null`.
#[test]
fn every_json_record_parses_as_json() {
    use hbsp_obs::json::{parse, Value};
    let campus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/campus.hbsp");
    let runs: [(&str, &[&str]); 3] = [
        (
            env!("CARGO_BIN_EXE_hbsp_run"),
            &[campus, "gather", "--kb", "5", "--json"],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_chaos"),
            &[
                "--seed", "3", "--runs", "4", "--ramps", "1", "--json", campus,
            ],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_adapt"),
            &[
                campus,
                "--engine",
                "sim",
                "--rounds",
                "4",
                "--threshold",
                "inf",
                "--json",
            ],
        ),
    ];
    for (bin, args) in runs {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {stdout}");
        let records: Vec<Value> = (stdout.lines())
            .map(|line| parse(line).unwrap_or_else(|e| panic!("{args:?}: {line}: {e}")))
            .collect();
        assert!(!records.is_empty(), "{args:?} printed no record");
        for r in &records {
            assert!(r.get("kind").and_then(Value::as_str).is_some(), "{r:?}");
            if r.get("kind") == Some(&Value::Str("adapt".to_string())) {
                assert_eq!(r.get("threshold"), Some(&Value::Null), "{r:?}");
            }
        }
    }
}
