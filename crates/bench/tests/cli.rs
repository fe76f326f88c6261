//! End-to-end tests of the `hbsp-bench` CLI binaries.

use std::process::Command;

#[expect(
    clippy::expect_used,
    reason = "a binary that cannot be started fails the test"
)]
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

/// An unknown operation is refused before anything is printed: exit 2,
/// the usage text, and no machine header on stdout.
#[test]
fn an_unknown_operation_prints_nothing_before_its_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_hbsp_run"))
        .args(["testbed:4", "bogus"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "");
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

#[expect(
    clippy::expect_used,
    reason = "a binary that cannot be started fails the test"
)]
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

#[expect(
    clippy::expect_used,
    reason = "a binary that cannot be started fails the test"
)]
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

/// A bad `--root` is the run's typed error, printed once: exit 1, no
/// panic, and in `--json` mode nothing on stdout.
#[test]
fn an_out_of_range_root_is_an_error_not_a_panic() {
    for op in ["gather", "broadcast", "scatter", "reduce"] {
        for json in [&[][..], &["--json"]] {
            let out = Command::new(env!("CARGO_BIN_EXE_hbsp_run"))
                .args(["testbed:4", op, "--root", "99", "--kb", "1"])
                .args(json)
                .output()
                .expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{op}: {stderr}");
            assert!(
                stderr.contains("root rank 99 out of range for a 4-processor machine"),
                "{op}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{op}: {stderr}");
            assert!(json.is_empty() || out.stdout.is_empty(), "{op}");
        }
    }
}

/// Every binary that takes a machine refuses a testbed count outside
/// 1..=10 with its usage text, as it refuses a count that is no number.
#[test]
fn an_out_of_range_testbed_is_a_usage_error() {
    for spec in ["testbed:0", "testbed:11", "testbed:x"] {
        for (bin, args) in [
            (env!("CARGO_BIN_EXE_hbsp_run"), &[spec, "gather"][..]),
            (env!("CARGO_BIN_EXE_hbsp_trace"), &[spec, "gather"]),
            (env!("CARGO_BIN_EXE_hbsp_adapt"), &[spec]),
            (env!("CARGO_BIN_EXE_hbsp_chaos"), &[spec]),
            (
                env!("CARGO_BIN_EXE_hbsp_sched"),
                &["--machine", spec, "--jobs", "x"],
            ),
        ] {
            let out = Command::new(bin).args(args).output().expect("binary runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        }
    }
}

/// One command-line contract for all nine binaries: an unknown option,
/// or a value option with no value after it, prints the usage text and
/// exits 2; an unknown engine is refused before anything is printed.
#[test]
fn every_binary_refuses_bad_arguments_with_its_usage() {
    let campus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../machines/campus.hbsp");
    let jobs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures/jobs_1000.jobs");
    // Each binary, words it would run with, and its value options.
    let table: [(&str, &[&str], &[&str]); 9] = [
        (
            env!("CARGO_BIN_EXE_hbsp_run"),
            &["testbed:2", "scan", "--kb", "1"],
            &["--kb", "--root", "--workload", "--strategy", "--phase"],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_trace"),
            &["testbed:2", "gather", "--kb", "1"],
            &[
                "--kb",
                "--strategy",
                "--engine",
                "--format",
                "--out",
                "--validate",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_sched"),
            &["--generate", "1"],
            &[
                "--machine",
                "--jobs",
                "--engine",
                "--trace",
                "--generate",
                "--seed",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_adapt"),
            &["testbed:2", "--engine", "sim", "--rounds", "2"],
            &[
                "--engine",
                "--collective",
                "--n",
                "--rounds",
                "--window",
                "--threshold",
                "--faults",
                "--log",
                "--postmortem",
            ],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_chaos"),
            &["--runs", "0", "--ramps", "0", "testbed:2"],
            &["--seed", "--runs", "--ramps", "--postmortem"],
        ),
        (env!("CARGO_BIN_EXE_hbsp_check"), &[campus], &["--items"]),
        (
            env!("CARGO_BIN_EXE_hbsp_postmortem"),
            &["bundle.jsonl"],
            &["--diff", "--chrome"],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_experiments"),
            &["E6"],
            &["--level"],
        ),
        (env!("CARGO_BIN_EXE_hbsp_lint"), &[], &[]),
    ];
    let refused = |bin: &str, args: &[&str]| {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
        out.stdout
    };
    for (bin, words, options) in table {
        refused(bin, &[words, &["--bogus"]].concat());
        for option in options {
            refused(bin, &[words, &[option]].concat());
        }
    }
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_hbsp_sched"),
            &["--machine", campus, "--jobs", jobs, "--engine", "bogus"][..],
        ),
        (
            env!("CARGO_BIN_EXE_hbsp_adapt"),
            &[campus, "--engine", "bogus"],
        ),
    ] {
        assert!(refused(bin, args).is_empty(), "{bin} {args:?}");
    }
}
