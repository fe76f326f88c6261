//! `hbsp_lint` — repo-specific source lints, run in CI.
//!
//! ```text
//! hbsp_lint [<crates-dir>]
//! ```
//!
//! The checks here hold the seams that no type, visibility rule or
//! clippy lint expresses yet. The other seams are held by the compiler
//! (items private to their crate or module, each named from outside by
//! a `compile_fail` doctest) and by clippy (the workspace
//! `clippy.toml`'s `disallowed-methods`, with an `#[expect]` at each
//! sanctioned call); `docs/verification.md` lists who holds which.
//!
//! * **Facade bypass** — inside `crates/runtime/src/` (except
//!   `sync.rs` itself, which *is* the facade), `std::sync::atomic`,
//!   `std::thread` and `std::cell::UnsafeCell` (or `core::`'s) must
//!   not be referenced: every atomic, park, yield, spawn, sleep or
//!   barrier-mediated cell must go through `crate::sync` so the
//!   `model` feature can interpose the `weave` checker. A raw `std`
//!   atomic or cell is invisible to exploration — its races simply
//!   don't exist there.
//!
//! * **Telemetry spine** — a superstep is written down once, by
//!   `hbsp_sim::step::emit_step_record`, into one sink,
//!   `hbsp_obs::Recorder`. Outside `crates/obs/src/` no `impl Probe
//!   for` may take step records (an `fn on_step` inside it: a second
//!   store), and `crates/sim/src/engine.rs` and
//!   `crates/runtime/src/engine.rs` may not build a `ProcTimeline { .. }`
//!   (timelines are a view over a recorder's steps,
//!   `ProcTimeline::from_steps`, not something an engine accumulates).
//!
//! * **One failure bundle** — the closed loop, `hbsplib::ClosedLoop`,
//!   assembles the failure bundle: outside
//!   `crates/hbsplib/src/adaptive.rs` and `crates/obs/src/` no file
//!   builds a `PostmortemBundle { .. }` literal.
//!
//! * **One placement site** — a scheduled job is carved, tuned and
//!   priced once per (shape, node, belief), in the placement cache's
//!   fill function: inside `crates/sched/src/` no function but `fill`
//!   calls `best_plan`, `carve` or `predict`. Admission and lowering
//!   read the cache instead of pricing again.
//!
//! Test code (everything at or after the first `#[cfg(test)]` line of
//! a file, and files under `tests/` or `benches/` directories) is
//! exempt from every check: tests may exercise raw `std` primitives
//! deliberately and may build bundles of their own. Line comments are
//! stripped before matching so prose about the forbidden patterns
//! doesn't trip the lint.
//!
//! Exit status: 0 clean, 1 violations found, 2 usage errors.

use hbsp_bench::cli::Args;
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

/// Facade bypass: what the runtime may name only inside its facade,
/// and what to say about it.
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

/// One placement site: the calls that place a job, and the one
/// function that may make them.
const PLACEMENT_STEPS: [&str; 3] = ["best_plan", "carve", "predict"];
const PLACEMENT_SITE: &str = "fill";

/// The name of the function `line` opens, if it opens one.
fn opened_fn(line: &str) -> Option<&str> {
    let head = line.trim_start().trim_start_matches("pub(crate) ");
    let rest = head.trim_start_matches("pub ").strip_prefix("fn ")?;
    rest.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .next()
}

/// Whether `line` calls `name` (a definition, `fn name(`, is no call).
fn calls(line: &str, name: &str) -> bool {
    line.match_indices(name)
        .any(|(at, _)| line[at + name.len()..].starts_with('(') && !line[..at].ends_with("fn "))
}

/// Apply the checks to `text`, the contents of the file at `path`.
fn lint_text(path: &Path, text: &str, out: &mut Vec<Violation>) {
    let rel = path.to_string_lossy().replace('\\', "/");
    if rel.ends_with("/hbsp_lint.rs") {
        return; // the check definitions spell out the forbidden patterns
    }
    if rel.contains("/tests/") || rel.contains("/benches/") {
        return; // test code is exempt
    }
    let mut report = |line: usize, message: String| {
        out.push(Violation {
            file: path.to_path_buf(),
            line,
            message,
        })
    };
    let in_runtime_src = rel.contains("crates/runtime/src/");
    let is_facade = in_runtime_src && rel.ends_with("/sync.rs");
    let in_obs_src = rel.contains("crates/obs/src/");
    let is_engine = ["crates/sim/src/engine.rs", "crates/runtime/src/engine.rs"]
        .iter()
        .any(|file| rel.ends_with(file));
    let closes_loop = in_obs_src || rel.ends_with("crates/hbsplib/src/adaptive.rs");
    let in_sched_src = rel.contains("crates/sched/src/");
    // Telemetry spine: the line of the `impl Probe for` block being read.
    let mut probe_impl: Option<usize> = None;
    // One placement site: the function being read.
    let mut in_fn = "";
    for (idx, raw) in text.lines().enumerate() {
        if raw.trim_start().starts_with("#[cfg(test)]") {
            return; // test code is exempt, from here to the end of the file
        }
        let line = strip_comment(raw);
        let lineno = idx + 1;
        in_fn = opened_fn(line).unwrap_or(in_fn);
        if in_runtime_src && !is_facade {
            for (pattern, message) in FACADE_ONLY {
                if line.contains(pattern) {
                    report(lineno, message.into());
                }
            }
        }
        if !in_obs_src {
            if line.contains("impl") && line.contains("Probe for ") {
                probe_impl = Some(lineno);
            } else if raw.starts_with('}') {
                probe_impl = None;
            } else if let (Some(at), true) = (probe_impl, line.contains("fn on_step")) {
                probe_impl = None;
                report(
                    at,
                    "a second sink for step records — attach an `hbsp_obs::Recorder` \
                     (or `FlightRecorder`) and read it by cursor"
                        .into(),
                );
            }
        }
        if is_engine && line.contains("ProcTimeline {") {
            report(
                lineno,
                "an engine accumulating timelines — they are a view over a \
                 recorder's steps (`ProcTimeline::from_steps`)"
                    .into(),
            );
        }
        // A return type or an `impl`/`struct` header builds nothing.
        if !closes_loop
            && line.contains("PostmortemBundle {")
            && !["->", "impl ", "struct "].iter().any(|k| line.contains(k))
        {
            report(
                lineno,
                "`PostmortemBundle` outside the closed loop — drive an \
                 `hbsplib::ClosedLoop` (its `run` assembles the failure bundle)"
                    .into(),
            );
        }
        if in_sched_src && in_fn != PLACEMENT_SITE {
            for name in PLACEMENT_STEPS.into_iter().filter(|name| calls(line, name)) {
                report(
                    lineno,
                    format!(
                        "`{name}` called outside the placement cache's `{PLACEMENT_SITE}` — \
                         read the job's price and plan from `Placements::claim`"
                    ),
                );
            }
        }
    }
}

fn usage() -> ! {
    eprintln!("usage: hbsp_lint [<crates-dir>]");
    exit(2)
}

fn main() {
    let root = match &Args::new(usage).positional()[..] {
        // The `crates/` this binary was built in (crates/bench's parent);
        // a tree without it has no .rs files, which is refused below.
        [] => (Path::new(env!("CARGO_MANIFEST_DIR")).parent())
            .map_or_else(PathBuf::new, Path::to_path_buf),
        [dir] => PathBuf::from(dir),
        _ => usage(),
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
            "hbsp_lint: {} files clean (facade, telemetry spine, one failure bundle, one placement site)",
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

    /// What the lint prints for `text` as the file at `path`.
    fn printed(path: &str, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        lint_text(Path::new(path), text, &mut out);
        out.iter().map(Violation::to_string).collect()
    }

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

    /// A scheduler that keeps its own copy of every step, or an engine
    /// that grows timelines again, is the duplicate the spine removed.
    #[test]
    fn a_second_step_store_is_reported_with_file_and_line() {
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

    /// A scheduler that assembles a failure bundle itself is the second
    /// copy of the loop `ClosedLoop` replaced.
    #[test]
    fn a_second_closed_loop_is_reported_with_file_and_line() {
        let copied = "fn batch(b: &Tree) {\n    \
                      let bundle = hbsp_obs::PostmortemBundle {\n        reason,\n    };\n}\n";
        let found = printed("crates/sched/src/lib.rs", copied);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(
            found[0].starts_with(
                "crates/sched/src/lib.rs:2: lint: `PostmortemBundle` outside the closed loop"
            ),
            "{found:?}"
        );
        // The loop's module and the recorder's crate may, and so may
        // test code; a return type or an impl header builds nothing.
        assert!(printed("crates/hbsplib/src/adaptive.rs", copied).is_empty());
        assert!(printed("crates/obs/src/record.rs", copied).is_empty());
        assert!(printed("crates/collectives/tests/adaptive_properties.rs", copied).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{copied}}}\n");
        assert!(printed("crates/sched/src/lib.rs", &in_tests).is_empty());
        let typed = "fn load(p: &str) -> PostmortemBundle {\n    todo!()\n}\n\
                     pub fn postmortem(&self) -> hbsp_obs::PostmortemBundle {\n    todo!()\n}\n\
                     impl PostmortemBundle {\n}\n";
        assert!(printed("crates/bench/src/bin/hbsp_postmortem.rs", typed).is_empty());
    }

    /// A scheduler that tunes or carves beside its placement cache pays
    /// for the same placement twice, and may lower a plan it never priced.
    #[test]
    fn a_second_placement_site_is_reported_with_file_and_line() {
        let copied =
            "fn lower_on(belief: &MachineTree, job: &Job, idx: NodeIdx) -> LoweredJob {\n    \
                      let carved = belief.carve(idx);\n    \
                      let plan = best_plan(&carved.tree, kind, n).unwrap();\n    \
                      let cost = predict(&carved.tree, &plan.schedule).total();\n}\n";
        let found = printed("crates/sched/src/lower.rs", copied);
        assert_eq!(found.len(), 3, "{found:?}");
        assert!(
            found[0].starts_with(
                "crates/sched/src/lower.rs:2: lint: `carve` called outside the placement cache"
            ),
            "{found:?}"
        );
        assert!(found[1].starts_with("crates/sched/src/lower.rs:3: lint: `best_plan`"));
        assert!(found[2].starts_with("crates/sched/src/lower.rs:4: lint: `predict`"));
        // The fill function may, in any file of the crate; so may test
        // code and other crates; `predicted_steps` is not `predict`.
        let filled = copied.replace("fn lower_on(", "pub(crate) fn fill(");
        assert!(printed("crates/sched/src/lower.rs", &filled).is_empty());
        assert!(printed("crates/sched/tests/placement.rs", copied).is_empty());
        assert!(printed("crates/collectives/src/tune.rs", copied).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n{copied}}}\n");
        assert!(printed("crates/sched/src/lib.rs", &in_tests).is_empty());
        let drift = "fn run() {\n    let predicted = predicted_steps(cl.belief(), &schedule);\n}\n";
        assert!(printed("crates/sched/src/lib.rs", drift).is_empty());
    }
}
