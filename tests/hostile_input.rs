//! Hostile input to the two `hbsp_obs` parsers that read files from
//! outside (`hbsp_postmortem <file>`, `hbsp_trace --validate <file>`):
//! every byte prefix and a few thousand byte mutations of a real
//! post-mortem bundle and a real Chrome trace. `json::parse`,
//! `PostmortemBundle::parse` and `validate_chrome_trace` return, never
//! panic, and whatever parses as a bundle re-renders byte-identically.

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
    for cut in (0..bundle.len()).filter(|&c| bundle.is_char_boundary(c)) {
        let prefix = &bundle[..cut];
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
    for cut in (0..trace.len()).filter(|&c| trace.is_char_boundary(c)) {
        parse_all(&trace[..cut]);
        // Cut anywhere before the closing `]`, the array is unbalanced.
        let check = validate_chrome_trace(&trace[..cut]);
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
        let original: Vec<char> = text.chars().collect();
        let mut rng = SplitMix64::new(seed);
        let mut parsed = 0;
        for _ in 0..3000 {
            let mut chars = original.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(chars.len() as u64) as usize;
                let c = hostile[rng.below(hostile.len() as u64) as usize];
                // Never remove the last character: the next mutation
                // draws a position below the length.
                match rng.below(4) {
                    0 => chars[at] = c,
                    1 => chars.insert(at, c),
                    2 if chars.len() > 1 => drop(chars.remove(at)),
                    _ => chars.truncate(at.max(1)),
                }
            }
            let mutated: String = chars.into_iter().collect();
            parsed += usize::from(parse_all(&mutated).is_some());
        }
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
