//! Hostile input to every parser that reads a file from outside: the two
//! `hbsp_obs` ones (`hbsp_postmortem <file>`, `hbsp_trace --validate
//! <file>`), fault plans (`--faults`), job graphs (`--jobs`) and machine
//! files. Each sees every prefix and a few thousand seeded character
//! mutations of a real file, and returns, never panics; what parses as a
//! bundle or a fault plan re-renders to text that parses back the same.

use hbsp::bench::jobfile;
use hbsp::core::topology;
use hbsp::obs::span::CausalTree;
use hbsp::obs::{json, validate_chrome_trace, CausalKind, FlightRecorder, PostmortemBundle};
use hbsp::prelude::*;
use hbsp::sim::SplitMix64;
use std::sync::Arc;

/// All-to-all gossip that runs unchanged on a degraded machine.
struct Gossip {
    rounds: usize,
}

impl Program for Gossip {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _: &mut (),
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step >= self.rounds {
            return StepOutcome::Done;
        }
        ctx.charge(3.5 * (env.pid.rank() + 1) as f64);
        for p in (0..env.nprocs).filter(|&p| p != env.pid.rank()) {
            ctx.send(ProcId(p as u32), 0, &[0xA5; 12]);
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

fn machine() -> Arc<MachineTree> {
    let procs = [(1.0, 1.0), (2.0, 0.5), (1.5, 0.75)];
    Arc::new(TreeBuilder::flat(1.0, 20.0, &procs).unwrap())
}

/// A crash, a degradation and the re-run, as a three-step flight ring
/// saw them on the threaded runtime, with the causal tree and decision
/// log a scheduler would add: every line kind the format has.
fn real_bundle() -> String {
    let flight = Arc::new(FlightRecorder::with_capacity(3));
    let plan = FaultPlan::new().crash(ProcId(1), 2);
    let exec = Executor::threads(machine())
        .faults(plan)
        .recovery(RecoveryPolicy::Degrade)
        .probe(flight.clone());
    exec.run_recovering(|_| Ok(Gossip { rounds: 5 }))
        .expect("degrades and completes");
    let mut bundle = exec.postmortem("crash: P1 died (\"seeded\")\n", &flight);
    let mut causal = CausalTree::new();
    let batch = causal.push(CausalKind::Batch, "batch 0", None, 0.0, 1e6);
    causal.push_steps(Some(batch), &bundle.steps, 0.0);
    bundle.spans = causal.into_spans();
    bundle.decision_log = "batch=0 jobs=1 predicted=12.5 observed=13 replanned=false\n".into();
    assert!(bundle.events.len() >= 2 && bundle.steps.len() == 3);
    bundle.to_jsonl()
}

/// The Chrome trace of the same program, wall-clock track included.
fn real_chrome_trace() -> String {
    let recorder = Arc::new(Recorder::new());
    Executor::threads(machine())
        .probe(recorder.clone())
        .run(&Gossip { rounds: 1 })
        .unwrap();
    recorder.chrome_trace()
}

/// Every prefix of `text` that ends on a character boundary, with its
/// length.
fn prefixes(text: &str) -> impl Iterator<Item = (usize, &str)> {
    (0..text.len())
        .filter(|&cut| text.is_char_boundary(cut))
        .map(|cut| (cut, &text[..cut]))
}

/// `rounds` seeded mutations of `text`: each replaces, inserts or
/// removes one to three characters drawn from `alphabet`, or cuts the
/// text short.
fn mutations<'a>(
    text: &str,
    seed: u64,
    rounds: usize,
    alphabet: &'a [char],
) -> impl Iterator<Item = String> + 'a {
    let original: Vec<char> = text.chars().collect();
    let mut rng = SplitMix64::new(seed);
    (0..rounds).map(move |_| {
        let mut chars = original.clone();
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(chars.len() as u64) as usize;
            let c = alphabet[rng.below(alphabet.len() as u64) as usize];
            // Never remove the last character: the next mutation draws a
            // position below the length.
            match rng.below(4) {
                0 => chars[at] = c,
                1 => chars.insert(at, c),
                2 if chars.len() > 1 => drop(chars.remove(at)),
                _ => chars.truncate(at.max(1)),
            }
        }
        chars.into_iter().collect()
    })
}

/// Feed one text to all three parsers. What parses as a bundle must
/// re-render to text that parses to the same bundle again (the format's
/// normal form is a fixed point), which is returned.
fn parse_all(text: &str) -> Option<String> {
    let _ = json::parse(text);
    let _ = validate_chrome_trace(text);
    let rendered = PostmortemBundle::parse(text).ok()?.to_jsonl();
    let again = PostmortemBundle::parse(&rendered).expect("a rendered bundle parses");
    assert_eq!(again.to_jsonl(), rendered, "input: {text:?}");
    Some(rendered)
}

#[test]
fn every_prefix_of_a_bundle_and_a_trace_is_refused_or_parsed_whole() {
    let bundle = real_bundle();
    assert_eq!(parse_all(&bundle).as_deref(), Some(&bundle[..]));
    // The header and the three text lines are always written; past
    // them, a prefix parses exactly when it ends with a whole line, and
    // then it is its own rendering (which ends every line).
    let fixed = bundle.match_indices('\n').nth(3).unwrap().0 + 1;
    for (cut, prefix) in prefixes(&bundle) {
        match parse_all(prefix) {
            Some(rendered) if cut >= fixed => {
                assert_eq!(rendered.trim_end(), prefix.trim_end(), "cut at {cut}");
                assert!(prefix.ends_with(['}', '\n']), "cut at {cut}");
            }
            Some(_) => {}
            None => assert!(cut == 0 || !prefix.ends_with('\n'), "cut at {cut}"),
        }
    }
    let trace = real_chrome_trace();
    let whole = validate_chrome_trace(&trace).expect("the exporter's own output");
    assert!(whole.complete > 0);
    for (cut, prefix) in prefixes(&trace) {
        parse_all(prefix);
        // Cut anywhere before the closing `]`, the array is unbalanced.
        let check = validate_chrome_trace(prefix);
        assert!(
            check.is_err() || cut >= trace.rfind(']').unwrap(),
            "cut at {cut}"
        );
    }
}

#[test]
fn byte_mutations_of_a_bundle_and_a_trace_never_panic() {
    // What a number, a string, a structure or a line can turn into.
    let hostile: Vec<char> = "[]{}:,\"\\-+.eE0123456789 \n\ttrufalsn\u{0}\u{e9}\u{2766}"
        .chars()
        .collect();
    for (seed, text) in [(1, real_bundle()), (2, real_chrome_trace())] {
        let parsed = mutations(&text, seed, 3000, &hostile)
            .filter(|mutated| parse_all(mutated).is_some())
            .count();
        // A share of the mutations lands inside strings and still parses.
        assert!(seed != 1 || parsed > 100, "{parsed} mutated bundles parsed");
    }
}

/// Fails at the commit before the bound: a stack overflow there.
#[test]
fn a_million_open_brackets_are_an_error_not_a_stack_overflow() {
    for open in ["[", "{\"k\":", "[{\"k\":["] {
        let bomb = open.repeat(1_000_000);
        let err = json::parse(&bomb).unwrap_err();
        assert!(err.starts_with("nesting deeper than 128 at byte "), "{err}");
        assert!(validate_chrome_trace(&bomb)
            .unwrap_err()
            .contains("nesting deeper"));
        let line = format!("{{\"kind\":\"step\",\"step\":{bomb}}}");
        let err = PostmortemBundle::parse(&line).unwrap_err();
        assert!(err.starts_with("line 1: nesting deeper than 128"), "{err}");
    }
    let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(json::parse(&nested(128)).is_ok());
    let err = json::parse(&nested(129)).unwrap_err();
    assert_eq!(err, "nesting deeper than 128 at byte 128");
}

/// Fails at the commit before the fix: each of these parsed, to a
/// bundle that renders other text (`usize::MAX`, `0`, `0`, `1`, ...).
#[test]
fn integer_fields_refuse_what_is_not_an_integer_they_can_hold() {
    let bundle = real_bundle();
    let nines = "9".repeat(400);
    let not_integers = [
        "null",
        "-3",
        "1.5",
        "-0",
        "1e400",
        "9007199254740994",
        &nines,
    ];
    // Too large for a pid or a level, though an `f64` holds it exactly.
    let not_u32 = ["4294967296"];
    // Every integer field of the format: a line that has it, the text
    // in front of its (first) value, and what else it refuses.
    let fields: [(&str, &str, &[&str]); 12] = [
        ("\"kind\":\"postmortem\"", "\"step\":", &[]),
        ("\"kind\":\"step\"", "\"step\":", &[]),
        ("\"kind\":\"step\"", "\"barrier\":", &not_u32),
        ("\"kind\":\"step\"", "\"sent_words\":[", &[]),
        ("\"kind\":\"step\"", "\"words_by_level\":[", &[]),
        ("\"kind\":\"step\"", "\"messages_by_level\":[", &[]),
        ("\"event\":\"degraded\"", "\"dead\":[", &not_u32),
        ("\"event\":\"degraded\"", "\"remaining\":", &[]),
        ("\"event\":\"recovery_attempt\"", "\"attempt\":", &[]),
        ("\"kind\":\"span\"", "\"id\":", &[]),
        ("\"span_kind\":\"superstep\"", "\"parent\":", &[]),
        ("\"type\":\"counter\"", "\"value\":", &[]),
    ];
    for (on, field, more) in fields {
        let (ln, line) = bundle
            .lines()
            .enumerate()
            .find(|(_, l)| l.contains(on) && l.contains(field))
            .unwrap_or_else(|| panic!("no line with {on} and {field}"));
        let value_at = line.find(field).unwrap() + field.len();
        let value_len = line[value_at..].find([',', ']', '}']).unwrap();
        let nullable = field == "\"barrier\":" || field == "\"parent\":";
        for value in not_integers.iter().chain(more) {
            if nullable && *value == "null" {
                continue;
            }
            let mut hostile = line.to_string();
            hostile.replace_range(value_at..value_at + value_len, value);
            let err = PostmortemBundle::parse(&bundle.replacen(line, &hostile, 1))
                .expect_err(&format!("{field}{value} parsed"));
            let want = format!(
                "line {}: {} is not an integer in the field's range",
                ln + 1,
                field.trim_end_matches([':', '['])
            );
            assert_eq!(err, want);
        }
    }
}

/// Feed `parse` a real file's `text` whole, every prefix of it and 3000
/// seeded mutations: what a token, a number, a name or a line of the
/// line-oriented formats can turn into.
fn hammer(text: &str, seed: u64, parse: impl Fn(&str)) {
    let hostile: Vec<char> = "PxXw@#=,(){}\n \t-+.eE0123456789acdkLprst_\u{0}\u{e9}\u{2766}"
        .chars()
        .collect();
    parse(text);
    for (_, prefix) in prefixes(text) {
        parse(prefix);
    }
    for mutated in mutations(text, seed, 3000, &hostile) {
        parse(&mutated);
    }
}

/// `--faults` files: refused or parsed, never a panic, and a plan that
/// parses renders to text that parses to the same plan.
#[test]
fn a_hostile_fault_plan_is_refused_or_parsed_to_a_fixed_point() {
    let plan = FaultPlan::new()
        .crash(ProcId(2), 3)
        .stall(ProcId(1), 0)
        .drop_msgs(ProcId(3), 2)
        .truncate(ProcId(1), 2, 1)
        .render()
        + include_str!("../fixtures/straggler_ramp.faults");
    hammer(&plan, 3, |text| {
        if let Ok(plan) = FaultPlan::parse(text) {
            let again = FaultPlan::parse(&plan.render());
            assert_eq!(again, Ok(plan), "input: {text:?}");
        }
    });
}

/// `--jobs` files: every line that is not blank or a comment becomes a
/// job or a diagnostic, and the graph checks run on whatever parsed.
#[test]
fn a_hostile_job_graph_is_refused_or_parsed_line_by_line() {
    let jobs: String = include_str!("../fixtures/jobs_1000.jobs")
        .lines()
        .take(40)
        .map(|line| format!("{line}\n"))
        .collect();
    hammer(&jobs, 4, |text| {
        let (parsed, errors) = jobfile::parse(text);
        let lines = text
            .lines()
            .filter(|l| !l.split('#').next().unwrap_or("").trim().is_empty())
            .count();
        assert_eq!(parsed.len() + errors.len(), lines, "input: {text:?}");
        jobfile::validate(&parsed);
    });
}

/// Machine files: refused or parsed, never a panic, and a machine that
/// parses renders to text that parses to the same names, levels and
/// parameters, carves at every node and degrades by each single pid. The
/// second seed validated, and panicked in `carve`, before validation
/// bounded every processor's `r·g`.
#[test]
fn a_hostile_machine_file_is_refused_or_parsed_to_a_fixed_point() {
    let shape = |t: &MachineTree| {
        t.nodes()
            .map(|n| (n.name().to_string(), n.level(), *n.params()))
            .collect::<Vec<_>>()
    };
    let check = |text: &str| {
        if let Ok(tree) = topology::parse(text) {
            let again = topology::parse(&topology::to_dsl(&tree)).expect("a rendered machine");
            assert_eq!(shape(&again), shape(&tree), "input: {text:?}");
            for node in tree.nodes() {
                tree.carve(node.idx());
            }
            for pid in 0..tree.num_procs() as u32 {
                let _ = tree.degrade(&[ProcId(pid)]);
            }
        }
    };
    hammer(include_str!("../machines/grid3.hbsp"), 5, check);
    let overflow = include_str!("../machines/broken/word_cost_overflow.hbsp");
    hammer(overflow, 6, check);
}

/// Fails at the commit before the bound: a stack overflow there, at a
/// thousand levels already in a debug build.
#[test]
fn a_million_nested_clusters_are_an_error_not_a_stack_overflow() {
    let nested =
        |n: usize| "cluster c (L=1) {\n".repeat(n) + "proc p (r=1, speed=1)\n" + &"}\n".repeat(n);
    let err = topology::parse(&nested(1_000_000)).unwrap_err().to_string();
    assert!(err.contains("clusters nested deeper than 128"), "{err}");
    assert_eq!(topology::parse(&nested(128)).map(|t| t.height()), Ok(128));
    let err = topology::parse_unvalidated(&nested(129)).unwrap_err();
    assert_eq!(
        err.to_string(),
        "topology parse error at 129:17: clusters nested deeper than 128"
    );
}
