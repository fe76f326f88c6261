//! `hbsp_lint` — repo-specific concurrency lints, run in CI.
//!
//! ```text
//! hbsp_lint [<crates-dir>]
//! ```
//!
//! Six rules. The first three are motivated by bugs the model checker
//! can only catch if the runtime's synchronization actually flows
//! through its facade; the fourth holds the engine seam, the fifth the
//! telemetry spine, the sixth the superstep settlement:
//!
//! 1. **Facade bypass** — inside `crates/runtime/src/` (except
//!    `sync.rs` itself, which *is* the facade), `std::sync::atomic`,
//!    `std::thread` and `std::cell::UnsafeCell` (or `core::`'s) must
//!    not be referenced: every atomic, park, yield, spawn, sleep or
//!    barrier-mediated cell must go through `crate::sync` so the
//!    `model` feature can interpose the `weave` checker. A raw `std`
//!    atomic or cell is invisible to exploration — its races simply
//!    don't exist there.
//!
//! 2. **Bare `.lock().unwrap()`** — runtime locks must use
//!    `lock_anyway` (poison-tolerant, records the recovery in
//!    telemetry): a panicking thread elsewhere must not cascade
//!    `PoisonError` panics through surviving waiters.
//!
//! 3. **NaN-unsafe comparison** — `partial_cmp(..).unwrap()` on one
//!    line: cost aggregation works in `f64`, and a NaN must surface as
//!    a typed violation, not a panic deep in a sort. Use `total_cmp`.
//!
//! 4. **Engine seam** — `Simulator::new`, `Simulator::with_config`,
//!    `ThreadedRuntime::new` and `ThreadedRuntime::with_config` may be
//!    called only by the engines' own crates (`crates/sim/`,
//!    `crates/runtime/`, `crates/race/`) and by
//!    `crates/hbsplib/src/executor.rs`. Everything else runs programs
//!    through `hbsplib::Executor`, so it runs on every engine and a new
//!    engine is added in one file.
//!
//! 5. **Telemetry spine** — a superstep is written down once, by
//!    `hbsp_sim::step::emit_step_record`, into one sink,
//!    `hbsp_obs::Recorder`. Outside `crates/obs/src/` no `impl Probe
//!    for` may take step records (an `fn on_step` inside it: a second
//!    store), and `crates/sim/src/engine.rs` and
//!    `crates/runtime/src/engine.rs` may not build a `ProcTimeline { .. }`
//!    (timelines are a view over a recorder's steps,
//!    `ProcTimeline::from_steps`, not something an engine accumulates).
//!
//! 6. **One settlement** — a superstep is settled once, by
//!    `hbsp_sim::step::Settlement`: outside `crates/sim/src/step.rs`
//!    (and `crates/sim/src/timing.rs`, whose `superstep_timing` prices
//!    one step on its own) no file calls `resolve_outcomes`,
//!    `analyze_into`, `superstep_timing_faulted_into`, `barrier_release`,
//!    `delivery_order_into` or `emit_step_record`. An engine calls the
//!    settlement instead of writing its own copy of the loop.
//!
//! Test code (everything at or after the first `#[cfg(test)]` line of
//! a file, and files under `tests/` or `benches/` directories) is
//! exempt from rules 1–2 and 4–6: tests may exercise raw `std` primitives
//! deliberately, tests and benches may measure an engine below the
//! seam, and tests may check the settlement's steps one by one. Line
//! comments are stripped before matching so prose about the forbidden
//! patterns doesn't trip the lint.
//!
//! Exit status: 0 clean, 1 violations found, 2 usage errors.

use std::path::{Path, PathBuf};
use std::process::exit;

struct Violation {
    file: PathBuf,
    line: usize,
    message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Violation {
            file,
            line,
            message,
        } = self;
        write!(f, "{}:{line}: lint: {message}", file.display())
    }
}

/// Strip a line comment (`// ...`), ignoring `//` inside string
/// literals — good enough for lint purposes on this codebase.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

fn lint_file(path: &Path, out: &mut Vec<Violation>) {
    match std::fs::read_to_string(path) {
        Ok(text) => lint_text(path, &text, out),
        Err(_) => out.push(Violation {
            file: path.to_path_buf(),
            line: 0,
            message: "cannot read file".into(),
        }),
    }
}

/// Rule 1: what the runtime may name only inside its facade, and what
/// to say about it.
const FACADE_ONLY: [(&str, &str); 3] = [
    (
        "std::sync::atomic",
        "raw `std::sync::atomic` in the runtime — use `crate::sync::atomic` \
         so the model checker can interpose",
    ),
    (
        "std::thread",
        "raw `std::thread` in the runtime — use `crate::sync::thread` \
         so parks/yields/spawns are model transitions",
    ),
    (
        "cell::UnsafeCell",
        "raw `UnsafeCell` in the runtime — use `crate::sync::UnsafeCell` \
         so the model checker sees every access to it",
    ),
];

/// Rule 4: the calls that build an engine.
const ENGINE_CONSTRUCTORS: [&str; 4] = [
    "Simulator::new(",
    "Simulator::with_config(",
    "ThreadedRuntime::new(",
    "ThreadedRuntime::with_config(",
];

/// Rule 6: the steps of a superstep's settlement.
const SETTLEMENT_STEPS: [&str; 6] = [
    "resolve_outcomes",
    "analyze_into",
    "superstep_timing_faulted_into",
    "barrier_release",
    "delivery_order_into",
    "emit_step_record",
];

/// Apply the rules to `text`, the contents of the file at `path`.
fn lint_text(path: &Path, text: &str, out: &mut Vec<Violation>) {
    let rel = path.to_string_lossy().replace('\\', "/");
    if rel.ends_with("/hbsp_lint.rs") {
        return; // the rule definitions spell out the forbidden patterns
    }
    let in_tests_dir = rel.contains("/tests/") || rel.contains("/benches/");
    let in_runtime_src = rel.contains("crates/runtime/src/");
    let is_facade = in_runtime_src && rel.ends_with("/sync.rs");
    let below_seam = ["crates/sim/", "crates/runtime/", "crates/race/"]
        .iter()
        .any(|dir| rel.contains(dir))
        || rel.ends_with("crates/hbsplib/src/executor.rs");
    let in_obs_src = rel.contains("crates/obs/src/");
    let is_engine = ["crates/sim/src/engine.rs", "crates/runtime/src/engine.rs"]
        .iter()
        .any(|file| rel.ends_with(file));
    let settles = ["crates/sim/src/step.rs", "crates/sim/src/timing.rs"]
        .iter()
        .any(|file| rel.ends_with(file));
    // Rule 5: the line of the `impl Probe for` block being read.
    let mut probe_impl: Option<usize> = None;
    let mut in_test_mod = false;
    for (idx, raw) in text.lines().enumerate() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            in_test_mod = true;
        }
        let line = strip_comment(raw);
        let lineno = idx + 1;
        let exempt = in_test_mod || in_tests_dir;
        if in_runtime_src && !is_facade && !exempt {
            for (pattern, message) in FACADE_ONLY {
                if line.contains(pattern) {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: lineno,
                        message: message.into(),
                    });
                }
            }
        }
        if !exempt && !below_seam && ENGINE_CONSTRUCTORS.iter().any(|c| line.contains(c)) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                message: "engine constructed outside the seam — build an `hbsplib::Executor` \
                          and run through it"
                    .into(),
            });
        }
        if !exempt && !in_obs_src {
            if line.contains("impl") && line.contains("Probe for ") {
                probe_impl = Some(lineno);
            } else if raw.starts_with('}') {
                probe_impl = None;
            } else if let (Some(at), true) = (probe_impl, line.contains("fn on_step")) {
                probe_impl = None;
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: at,
                    message: "a second sink for step records — attach an `hbsp_obs::Recorder` \
                              (or `FlightRecorder`) and read it by cursor"
                        .into(),
                });
            }
        }
        if !exempt && is_engine && line.contains("ProcTimeline {") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                message: "an engine accumulating timelines — they are a view over a \
                          recorder's steps (`ProcTimeline::from_steps`)"
                    .into(),
            });
        }
        if !exempt && !settles {
            for name in SETTLEMENT_STEPS {
                let called = line.match_indices(name).any(|(at, _)| {
                    line[at + name.len()..].starts_with('(') && !line[..at].ends_with("fn ")
                });
                if called {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: lineno,
                        message: format!(
                            "`{name}` called outside the settlement — settle the step \
                             through `hbsp_sim::step::Settlement::settle`"
                        ),
                    });
                }
            }
        }
        if !exempt && line.contains(".lock().unwrap()") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                message: "bare `.lock().unwrap()` — use `lock_anyway` (poison-tolerant, \
                          records the recovery)"
                    .into(),
            });
        }
        if line.contains("partial_cmp") && line.contains(".unwrap()") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                message: "NaN-unsafe `partial_cmp(..).unwrap()` — use `f64::total_cmp`".into(),
            });
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = match args.as_slice() {
        [] => {
            // crates/bench/src/bin → workspace root → crates/
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .map(|r| r.join("crates"))
                .filter(|p| p.is_dir())
                .unwrap_or_else(|| {
                    eprintln!("hbsp_lint: cannot locate the crates/ directory");
                    exit(2)
                })
        }
        [dir] if !dir.starts_with('-') => PathBuf::from(dir),
        _ => {
            eprintln!("usage: hbsp_lint [<crates-dir>]");
            exit(2)
        }
    };
    let mut files = Vec::new();
    walk(&root, &mut files);
    files.sort();
    if files.is_empty() {
        eprintln!("hbsp_lint: no .rs files under {}", root.display());
        exit(2);
    }
    let mut violations = Vec::new();
    for f in &files {
        lint_file(f, &mut violations);
    }
    for v in &violations {
        eprintln!("{v}");
    }
    if violations.is_empty() {
        println!(
            "hbsp_lint: {} files clean (facade, lock_anyway, total_cmp, engine seam, telemetry spine, one settlement)",
            files.len()
        );
    } else {
        eprintln!("hbsp_lint: {} violation(s) found", violations.len());
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worker pool lives in `crates/runtime/src`; a raw spawn next
    /// to it would be a thread the model checker never schedules.
    #[test]
    fn raw_spawn_in_the_engine_is_reported_with_file_and_line() {
        let src = "use crate::sync::thread;\n\nfn f() {\n    std::thread::spawn(|| ());\n}\n";
        let mut out = Vec::new();
        lint_text(Path::new("crates/runtime/src/engine.rs"), src, &mut out);
        let printed: Vec<String> = out.iter().map(Violation::to_string).collect();
        assert_eq!(printed.len(), 1, "{printed:?}");
        assert!(
            printed[0].starts_with("crates/runtime/src/engine.rs:4: lint: raw `std::thread`"),
            "{printed:?}"
        );
        // The facade itself, and test modules, may name `std::thread`.
        out.clear();
        lint_text(Path::new("crates/runtime/src/sync.rs"), src, &mut out);
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        lint_text(
            Path::new("crates/runtime/src/engine.rs"),
            &in_tests,
            &mut out,
        );
        assert!(out.is_empty());
    }

    /// The engine keeps `2p` outbox cells beside its slots; a raw cell
    /// among them would be memory the model checker never watches.
    #[test]
    fn raw_unsafe_cell_in_the_engine_is_reported_with_file_and_line() {
        for krate in ["std", "core"] {
            let src = format!("struct Slot {{\n    out: {krate}::cell::UnsafeCell<u64>,\n}}\n");
            let mut out = Vec::new();
            lint_text(Path::new("crates/runtime/src/engine.rs"), &src, &mut out);
            let printed: Vec<String> = out.iter().map(Violation::to_string).collect();
            assert_eq!(printed.len(), 1, "{printed:?}");
            assert!(
                printed[0].starts_with("crates/runtime/src/engine.rs:2: lint: raw `UnsafeCell`"),
                "{printed:?}"
            );
            // The facade re-exports it, and test modules may use it.
            out.clear();
            lint_text(Path::new("crates/runtime/src/sync.rs"), &src, &mut out);
            let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
            lint_text(
                Path::new("crates/runtime/src/engine.rs"),
                &in_tests,
                &mut out,
            );
            assert!(out.is_empty());
        }
    }

    /// A collective that builds its own simulator runs on one engine
    /// only: the seam `hbsplib::Executor` exists to prevent.
    #[test]
    fn raw_engine_outside_the_seam_is_reported_with_file_and_line() {
        let src = "fn run(tree: Arc<MachineTree>) {\n    let sim = Simulator::new(tree);\n}\n";
        let printed = |path: &str, text: &str| -> Vec<String> {
            let mut out = Vec::new();
            lint_text(Path::new(path), text, &mut out);
            out.iter().map(Violation::to_string).collect()
        };
        let found = printed("crates/collectives/src/gather.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with("crates/collectives/src/gather.rs:2: lint: engine constructed"),
            "{found:?}"
        );
        let threaded = src.replace("Simulator::new", "ThreadedRuntime::with_config");
        assert_eq!(printed("crates/apps/src/sort.rs", &threaded).len(), 1);
        // Test modules, tests/ and benches/ may; so may the seam itself
        // and the engines' own crates.
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(printed("crates/collectives/src/gather.rs", &in_tests).is_empty());
        for allowed in [
            "crates/collectives/tests/adaptive_properties.rs",
            "crates/hbsplib/src/executor.rs",
            "crates/sim/src/model.rs",
            "crates/runtime/src/engine.rs",
            "crates/race/src/scenarios.rs",
        ] {
            assert!(printed(allowed, src).is_empty(), "{allowed}");
        }
    }

    /// A scheduler that keeps its own copy of every step, or an engine
    /// that grows timelines again, is the duplicate the spine removed.
    #[test]
    fn a_second_step_store_is_reported_with_file_and_line() {
        let printed = |path: &str, text: &str| -> Vec<String> {
            let mut out = Vec::new();
            lint_text(Path::new(path), text, &mut out);
            out.iter().map(Violation::to_string).collect()
        };
        let sink = "struct Mine(Mutex<Vec<StepTrace>>);\n\nimpl Probe for Mine {\n    \
                    fn enabled(&self) -> bool {\n        true\n    }\n    \
                    fn on_step(&self, r: &StepRecord<'_>) {\n        self.0.lock();\n    }\n}\n";
        let found = printed("crates/sched/src/lib.rs", sink);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with("crates/sched/src/lib.rs:3: lint: a second sink"),
            "{found:?}"
        );
        // A probe that takes no step records stores none; the recorder's
        // own crate and test code may implement the trait in full.
        let events_only = sink.replace("fn on_step", "fn on_event");
        assert!(printed("crates/sched/src/lib.rs", &events_only).is_empty());
        assert!(printed("crates/obs/src/record.rs", sink).is_empty());
        assert!(printed("crates/bench/tests/cli.rs", sink).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{sink}}}\n");
        assert!(printed("crates/sched/src/lib.rs", &in_tests).is_empty());

        let grown =
            "fn run() {\n    let tl = ProcTimeline {\n        pid,\n        spans,\n    };\n}\n";
        for engine in ["crates/sim/src/engine.rs", "crates/runtime/src/engine.rs"] {
            let found = printed(engine, grown);
            assert_eq!(found.len(), 1, "{found:?}");
            let want = format!("{engine}:2: lint: an engine accumulating timelines");
            assert!(found[0].starts_with(&want), "{found:?}");
        }
        assert!(printed("crates/sim/src/trace.rs", grown).is_empty());
    }

    /// An engine that times or routes a step itself is a second copy of
    /// the loop the settlement replaced.
    #[test]
    fn a_step_settled_outside_the_settlement_is_reported_with_file_and_line() {
        let printed = |path: &str, text: &str| -> Vec<String> {
            let mut out = Vec::new();
            lint_text(Path::new(path), text, &mut out);
            out.iter().map(Violation::to_string).collect()
        };
        let forked = "fn leader(ls: &mut Ls) {\n    \
                      let scope = resolve_outcomes(step, &ls.outcomes)?;\n    \
                      let rel = timing::barrier_release(tree, s, &f);\n}\n";
        let found = printed("crates/net/src/engine.rs", forked);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(
            found[0].starts_with(
                "crates/net/src/engine.rs:2: lint: `resolve_outcomes` called outside the settlement"
            ),
            "{found:?}"
        );
        assert!(found[1].starts_with("crates/net/src/engine.rs:3: lint: `barrier_release`"));
        for engine in ["crates/sim/src/engine.rs", "crates/runtime/src/engine.rs"] {
            assert_eq!(printed(engine, forked).len(), 2, "{engine}");
        }
        // The settlement and the algebra's own module may, and so may
        // test code; naming a step without calling it, or defining one,
        // is no call.
        assert!(printed("crates/sim/src/step.rs", forked).is_empty());
        assert!(printed("crates/sim/src/timing.rs", forked).is_empty());
        assert!(printed("crates/sim/tests/timing_properties.rs", forked).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{forked}}}\n");
        assert!(printed("crates/net/src/engine.rs", &in_tests).is_empty());
        let named = "use hbsp_sim::step::{analyze_into, Settlement};\n\
                     pub fn emit_step_record(probe: &dyn Probe) {}\n";
        assert!(printed("crates/net/src/engine.rs", named).is_empty());
    }
}
