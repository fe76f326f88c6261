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

/// The runners that take one input per processor refuse a wrong shape
/// — too few rows or vectors, a short row, a vector of another length —
/// with a typed error, never a panic.
#[test]
fn collective_inputs_of_the_wrong_shape_are_typed_errors() {
    use hbsp::collectives::plan::{RootPolicy, Strategy};
    use hbsp::collectives::reduce::{self, ReduceOp};
    use hbsp::collectives::{alltoall, scan, CollectiveError};
    let exec = Executor::simulator(machine());
    let shape = |what, want, got| Err::<(), _>(CollectiveError::Shape { what, want, got });
    let blocks = |rows: usize, cols: usize| vec![vec![vec![7u32; 2]; cols]; rows];
    let alltoall = |b| alltoall::run(&exec, b, Strategy::Hierarchical).map(drop);
    assert_eq!(alltoall(blocks(2, 3)), shape("rows of blocks", 3, 2));
    assert_eq!(alltoall(blocks(3, 4)), shape("blocks in a row", 3, 4));

    let vectors = |lens: &[usize]| lens.iter().map(|&n| vec![1u32; n]).collect();
    let sum = ReduceOp::Sum;
    let reduce = |v| reduce::run(&exec, v, sum, RootPolicy::Fastest, Strategy::Flat).map(drop);
    assert_eq!(reduce(vectors(&[4, 4])), shape("vectors", 3, 2));
    assert_eq!(
        reduce(vectors(&[4, 4, 5])),
        shape("words in a vector", 4, 5)
    );
    let scan = |v| scan::run(&exec, v, sum).map(drop);
    assert_eq!(scan(vectors(&[1, 1, 1, 1])), shape("vectors", 3, 4));
    assert_eq!(scan(vectors(&[2, 0, 2])), shape("words in a vector", 2, 0));
}

/// Pieces that do not tile the array they make up — one past its end,
/// two over one index, or one that leaves a hole — are a typed error
/// from `reassemble`, never a panic.
#[test]
fn pieces_that_do_not_tile_the_array_are_typed_errors() {
    use hbsp::collectives::{reassemble, DecodeError, Piece};
    let pieces = |spans: &[(u32, usize)]| -> Vec<Piece> {
        let piece = |&(offset, len): &(u32, usize)| Piece {
            offset,
            items: vec![offset; len],
        };
        spans.iter().map(piece).collect()
    };
    assert_eq!(
        reassemble(&pieces(&[(0, 2), (3, 2)])),
        Err(DecodeError::PieceOverrun(3))
    );
    assert_eq!(
        reassemble(&pieces(&[(2, 2), (0, 3)])),
        Err(DecodeError::PieceOverlap(2))
    );
    assert_eq!(
        reassemble(&pieces(&[(0, 1), (2, 1), (2, 1)])),
        Err(DecodeError::PieceGap(1))
    );
    let tiled = reassemble(&pieces(&[(3, 1), (0, 3), (2, 0)]));
    assert_eq!(tiled, Ok(vec![0, 0, 0, 3]));
}

/// The experiment drivers on a testbed that does not build — a
/// processor count outside 1..=10 or a negative campus barrier — return
/// the machine error instead of panicking.
#[test]
fn experiments_on_a_machine_that_does_not_build_are_typed_errors() {
    use hbsp::bench::experiments::{
        broadcast_crossover, gather_root_improvement, hbsp2_amortization, hbsp2_phase_study,
        model_accuracy,
    };
    use hbsp::bench::testbed::testbed;
    use hbsp::collectives::CollectiveError;
    let eleventh = ModelError::NoSuchMachine {
        id: MachineId::new(0, 10),
    };
    let negative_l = ModelError::InvalidL {
        id: MachineId::new(2, 0),
        l: -1.0,
    };
    assert_eq!(testbed(0).unwrap_err(), ModelError::EmptyMachine);
    assert_eq!(testbed(11).unwrap_err(), eleventh);
    let machine = |e: &ModelError| Some(CollectiveError::Machine(e.clone()));
    let gather = gather_root_improvement(&[11], &[1]).err();
    assert_eq!(gather, machine(&eleventh));
    let crossover = broadcast_crossover(&[0], 1).err();
    assert_eq!(crossover, machine(&ModelError::EmptyMachine));
    assert_eq!(model_accuracy(11, 1).err(), machine(&eleventh));
    assert_eq!(hbsp2_phase_study(&[-1.0], 1).err(), machine(&negative_l));
    assert_eq!(hbsp2_amortization(&[1], -1.0).err(), machine(&negative_l));
}

/// Programs whose constructors cannot refuse their input — a schedule
/// with no steps or with a drain before its last step, a matrix or
/// vector of the wrong size, a stencil field without its boundaries —
/// are refused when they run, on both engines: by the pre-flight when
/// checking is on, and by their first step when it is off.
#[test]
fn programs_with_malformed_input_are_refused_on_both_engines() {
    use hbsp::apps::matvec::MatVec;
    use hbsp::apps::stencil::Stencil;
    use hbsp::collectives::plan::WorkloadPolicy;
    use hbsp::collectives::schedule::{CommSchedule, ProcInit, ScheduleProgram, ScheduleStep};

    fn refused<P: Program>(name: &str, prog: &P, step: usize) {
        for engine in [Executor::simulator, Executor::threads] {
            let exec = engine(machine());
            match exec.clone().check(true).run(prog).map(drop) {
                Err(SimError::Preflight { .. }) => {}
                other => panic!("{name}, checked: expected Preflight, got {other:?}"),
            }
            match exec.check(false).run(prog).map(drop) {
                Err(SimError::ProgramAborted { pid, step: at, .. }) => {
                    assert_eq!((pid, at), (ProcId(0), step), "{name}")
                }
                other => panic!("{name}, unchecked: expected ProgramAborted, got {other:?}"),
            }
        }
    }

    let schedule = |steps| {
        let sched = CommSchedule {
            steps,
            ..CommSchedule::default()
        };
        let init = vec![ProcInit::default(); 3];
        ScheduleProgram::new(Arc::new(sched), Arc::new(init), None)
    };
    refused("empty schedule", &schedule(vec![]), 0);
    let global = ScheduleStep::at(SyncScope::Level(1));
    let early = vec![ScheduleStep::drain(), global, ScheduleStep::drain()];
    refused("misplaced drain", &schedule(early), 0);

    let equal = WorkloadPolicy::Equal;
    let matvec = |a: usize, x: usize| {
        MatVec::new(Arc::new(vec![1.0; a]), Arc::new(vec![1.0; x]), 3, 2, equal)
    };
    refused("short matrix", &matvec(5, 2), 0);
    refused("long vector", &matvec(6, 3), 0);
    refused(
        "one-cell field",
        &Stencil::new(Arc::new(vec![1.0]), 4, equal),
        0,
    );
}

/// A schedule program whose input has fewer entries than the machine
/// has processors: a rank without an entry starts empty, and where the
/// schedule names it that is a typed error on both engines (the
/// pre-flight names it `InitMismatch` when checking is on), never a
/// panic inside the interpreter. A schedule that leaves it alone runs.
#[test]
fn a_schedule_input_shorter_than_the_machine_is_a_typed_error() {
    use hbsp::collectives::data::DecodeError;
    use hbsp::collectives::schedule::{
        execute, stage, CommSchedule, ScheduleProgram, ScheduleStep, Staging,
    };
    use hbsp::collectives::{gather, CollectiveError, Role, Transfer, UnitId, WorkloadPolicy};
    let tree = machine();
    let items: Vec<u32> = (0..12).collect();
    let mut init = stage(&tree, Staging::Shares(&items, WorkloadPolicy::Equal));
    init.truncate(2);
    let init = Arc::new(init);
    let flat = gather::lower_flat_gather(&tree, 12, ProcId(0), WorkloadPolicy::Equal);
    let gather = ScheduleProgram::new(Arc::new(flat), Arc::clone(&init), None);
    let mut pair = CommSchedule::new();
    let mut step = ScheduleStep::at(SyncScope::Level(1));
    let (src, dst, words, role) = (ProcId(1), ProcId(0), 4, Role::Piece(UnitId::new(4, 4)));
    step.transfers.push(Transfer {
        src,
        dst,
        words,
        role,
    });
    pair.push(step);
    pair.push(ScheduleStep::drain());
    let pair = ScheduleProgram::new(Arc::new(pair), init, None);
    for engine in [Executor::simulator, Executor::threads] {
        let exec = engine(Arc::clone(&tree));
        let checked = exec.clone().check(true).run(&gather).map(drop);
        assert!(
            matches!(checked, Err(SimError::Preflight { .. })),
            "{checked:?}"
        );
        let unfed = CollectiveError::Decode {
            pid: ProcId(2),
            error: DecodeError::NoInput,
        };
        let unchecked = exec.clone().check(false);
        assert_eq!(execute(&unchecked, &gather).map(drop), Err(unfed));
        let (_, states) = execute(&unchecked, &pair).unwrap();
        assert_eq!(states[0].try_unit(UnitId::new(4, 4)), Ok(vec![4, 5, 6, 7]));
        assert!(states[2].pieces().is_empty());
    }
}

/// The §4.4 top-level closed forms need a top level: on an HBSP^0
/// machine (one processor) they return the machine error.
#[test]
fn top_level_closed_forms_on_a_machine_without_clusters_are_typed_errors() {
    use hbsp::bench::experiments::{hbsp2_top_one_phase, hbsp2_top_two_phase};
    use hbsp::collectives::CollectiveError;
    let mut builder = TreeBuilder::new(1.0);
    builder.proc_root("lone", NodeParams::proc(1.0, 1.0));
    let lone = builder.build().unwrap();
    let no_top = CollectiveError::Machine(ModelError::NoSuchLevel {
        level: 1,
        height: 0,
    });
    assert_eq!(hbsp2_top_one_phase(&lone, 64).err(), Some(no_top.clone()));
    assert_eq!(hbsp2_top_two_phase(&lone, 64).err(), Some(no_top));
}

/// A placement that does not fit — a schedule naming a rank past its
/// leaves, a leaf past the machine, holdings shorter than the leaves —
/// is a typed error of `Placed::new`, and one that fits runs on both
/// engines, checked and unchecked. A scheduler refuses the custom job
/// whose schedule names a rank past its holdings before anything runs,
/// on either engine.
#[test]
fn a_placement_that_does_not_fit_is_a_typed_error() {
    use hbsp::collectives::schedule::{
        execute, CommSchedule, Placed, ProcInit, ScheduleProgram, ScheduleStep, Transfer,
    };
    use hbsp::collectives::{CollectiveError, Role, UnitId};
    use hbsp::sched::{Engine, SchedError};
    let tree = machine();
    let unit = UnitId::new(0, 4);
    // Local rank `src` hands `unit` to local rank 0, then a drain.
    let hand = |src: u32| {
        let mut step = ScheduleStep::at(SyncScope::Level(1));
        let (src, dst, words, role) = (ProcId(src), ProcId(0), 4, Role::Piece(unit));
        step.transfers.push(Transfer {
            src,
            dst,
            words,
            role,
        });
        let steps = vec![step, ScheduleStep::drain()];
        CommSchedule {
            steps,
            ..CommSchedule::default()
        }
    };
    let mut init = vec![ProcInit::default(); 2];
    init[1].units.push((unit, vec![7, 8, 9, 10]));
    let leaves = [ProcId(1), ProcId(2)];
    let shape = |what, want, got| Err(CollectiveError::Shape { what, want, got });
    let placed = |sched: &CommSchedule, leaves: &[ProcId], init: &[ProcInit]| {
        Placed::new(&tree, sched, leaves, 1, init).map(drop)
    };
    assert_eq!(
        placed(&hand(2), &leaves, &init),
        shape("ranks named by the schedule", 2, 3)
    );
    assert_eq!(
        placed(&hand(1), &[ProcId(1), ProcId(5)], &init),
        shape("machine ranks named by the leaves", 3, 6)
    );
    assert_eq!(
        placed(&hand(1), &leaves, &init[..1]),
        shape("initial holdings", 2, 1)
    );

    let fits = Arc::new(Placed::new(&tree, &hand(1), &leaves, 1, &init).unwrap());
    let members = || [(Arc::clone(&fits), init.clone())].into_iter();
    for engine in [Executor::simulator, Executor::threads] {
        for check in [true, false] {
            let exec = engine(Arc::clone(&tree)).check(check);
            let prog = ScheduleProgram::side_by_side(3, members(), None);
            let (_, states) = execute(&exec, &prog).unwrap();
            assert_eq!(states[1].try_unit(unit), Ok(vec![7, 8, 9, 10]), "{check}");
        }
    }

    for engine in [Engine::Simulator, Engine::Threads] {
        let mut sched = Scheduler::new(machine());
        let job = sched.submit(Job::custom("past", hand(2), init.clone(), None));
        let opts = RunOptions {
            engine,
            ..RunOptions::default()
        };
        let refused = sched.run(&opts).map(drop);
        assert!(
            matches!(refused, Err(SchedError::MalformedCustom { job: j }) if j == job),
            "{refused:?}"
        );
    }
}
