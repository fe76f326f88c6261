//! Post-mortem forensics acceptance tests.
//!
//! Three contracts ride on the [`PostmortemBundle`]:
//!
//! 1. **Cross-engine bit-identity** — the same seeded crash captured
//!    through an armed [`FlightRecorder`] produces bundles whose
//!    serialized forms are byte-identical between the discrete-event
//!    simulator and the threaded runtime, except for the
//!    self-identifying `engine` header field. A bundle is a
//!    virtual-time artifact; wall clocks never leak into it.
//! 2. **Lossless serialization** — export → parse → re-export is
//!    byte-identical for *arbitrary* bundles (property-tested over
//!    random strings, times, events, spans, and metrics, including
//!    non-finite floats and characters that need JSON escaping).
//! 3. **Renderable causality** — the causal span trees produced by the
//!    scheduler and the adaptive executor render as Chrome traces that
//!    pass [`validate_chrome_trace`] and carry parent links.

use hbsp::collectives::{CollectiveKind, RepeatedCollective};
use hbsp::core::topology;
use hbsp::lib::{AdaptiveExecutor, Executor};
use hbsp::obs::export::{chrome_trace_with_causal, validate_chrome_trace};
use hbsp::obs::span::{CausalKind, CausalSpan, CausalTree};
use hbsp::obs::{
    EventTrace, FlightRecorder, MetricSample, MetricValue, PostmortemBundle, StepRecord, StepTrace,
};
use hbsp::prelude::*;
use hbsp::sched::{Engine, Job, RunOptions, Scheduler};
use proptest::prelude::*;
use std::sync::Arc;

fn campus() -> Arc<hbsp::core::MachineTree> {
    let text = std::fs::read_to_string("machines/campus.hbsp").expect("campus machine file");
    Arc::new(topology::parse(&text).expect("campus machine parses"))
}

/// All-to-all gossip that runs unchanged on any machine shape.
struct Gossip {
    rounds: usize,
}

impl Program for Gossip {
    type State = u64;
    fn init(&self, _env: &ProcEnv) -> u64 {
        0
    }
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        digest: &mut u64,
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        for m in ctx.messages() {
            *digest = digest
                .wrapping_mul(31)
                .wrapping_add(m.src.0 as u64 + m.payload.len() as u64);
        }
        if step >= self.rounds {
            return StepOutcome::Done;
        }
        for p in 0..env.nprocs {
            if p != env.pid.rank() {
                ctx.send(ProcId(p as u32), 0, &[0xA5; 8]);
            }
        }
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// Contract 1: the same seeded crash yields bundles that differ in the
/// `engine` header and nothing else — `diff` reports exactly that one
/// field, and normalizing it makes the JSONL byte-identical.
#[test]
fn seeded_crash_bundles_are_bit_identical_across_engines() {
    let tree = campus();
    let victim = ProcId(2);
    let plan = FaultPlan::new().crash(victim, 4);
    let prog = Gossip { rounds: 8 };

    let mut bundles = Vec::new();
    for engine in ["sim", "threads"] {
        let rec = Arc::new(FlightRecorder::new());
        let exec = match engine {
            "sim" => Executor::simulator(Arc::clone(&tree)),
            _ => Executor::threads(Arc::clone(&tree)),
        }
        .faults(plan.clone())
        .probe(rec.clone());
        let err = exec.run(&prog).expect_err("seeded crash surfaces");
        assert!(rec.recorded() > 0, "{engine}: recorder armed and filled");
        let bundle = rec.bundle(&err.to_string(), engine, &tree.to_string(), &plan.render());
        bundle.validate().expect("bundle validates");
        // Lossless through the wire format.
        let text = bundle.to_jsonl();
        let parsed = PostmortemBundle::parse(&text).expect("parses back");
        assert_eq!(parsed.to_jsonl(), text, "{engine}: round-trip");
        // And renderable.
        validate_chrome_trace(&bundle.chrome_trace()).expect("trace validates");
        bundles.push(bundle);
    }

    let (sim, thr) = (&bundles[0], &bundles[1]);
    let d = sim.diff(thr);
    assert_eq!(
        d.len(),
        1,
        "bundles must differ ONLY in the engine field, got {d:?}"
    );
    assert!(d[0].starts_with("engine:"), "{d:?}");

    // Byte-level check of the same statement: normalize the engine
    // header and the serialized bundles are identical.
    let normalize = |b: &PostmortemBundle| {
        let mut b = b.clone();
        b.engine = "either".to_string();
        b.to_jsonl()
    };
    assert_eq!(normalize(sim), normalize(thr));

    // The flight recorders themselves agree step for step (wall-free
    // serialized form; the threaded engine additionally stamps wall
    // clocks, which the format deliberately drops).
    assert_eq!(sim.steps.len(), thr.steps.len());
    assert_eq!(sim.step, thr.step, "last step seen agrees");
}

/// Contract 3a: a drained scheduler graph's causal tree renders as a
/// valid Chrome trace with batch → job → superstep parent links.
#[test]
fn scheduler_causal_trace_validates_with_parent_links() {
    let mut sched = Scheduler::new(campus());
    let a = sched.submit(Job::collective("a", CollectiveKind::Broadcast, 64));
    let b = sched.submit(Job::collective("b", CollectiveKind::Gather, 32));
    sched.submit(Job::collective("c", CollectiveKind::Scatter, 16).after(&[a, b]));
    let rep = sched
        .run(&RunOptions {
            engine: Engine::Simulator,
            serial: false,
            adapt: None,
        })
        .expect("graph drains");

    assert!(
        rep.causal.iter().any(|s| s.kind == CausalKind::Batch),
        "batch spans present"
    );
    assert!(
        rep.causal
            .iter()
            .any(|s| s.kind == CausalKind::Job && s.parent.is_some()),
        "job spans link to their batch"
    );
    let trace = rep.chrome_trace();
    validate_chrome_trace(&trace).expect("scheduler trace validates");
    assert!(trace.contains("\"cat\":\"causal\""));
    assert!(trace.contains("\"parent\":"), "parent links rendered");
}

/// Contract 3b: the adaptive executor's segment → superstep tree does
/// the same.
#[test]
fn adaptive_causal_trace_validates_with_parent_links() {
    let tree = campus();
    let job = RepeatedCollective::new(CollectiveKind::Broadcast, 64, 3);
    let outcome = AdaptiveExecutor::new(Executor::simulator(tree))
        .run(&job, 4)
        .expect("adaptive run completes");

    assert!(
        outcome
            .spans
            .iter()
            .any(|s| s.kind == CausalKind::Segment && s.parent.is_none()),
        "segment roots present"
    );
    assert!(
        outcome
            .spans
            .iter()
            .any(|s| s.kind == CausalKind::Superstep && s.parent.is_some()),
        "supersteps link to their segment"
    );
    let trace = chrome_trace_with_causal(&[], &outcome.spans);
    validate_chrome_trace(&trace).expect("adaptive trace validates");
    assert!(trace.contains("\"cat\":\"causal\""));
}

// ---- contract 2: property-tested lossless serialization ----

/// Any f64 for fields stored verbatim: NaN and ±inf all serialize as
/// JSON null and parse back as NaN, which re-renders null — stable.
fn arb_time() -> impl Strategy<Value = f64> {
    prop_oneof![
        proptest::num::f64::ANY, // raw bit patterns: subnormals, NaN, ±inf
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        -1e9..1e9f64,
    ]
}

/// Step-record times: finite or NaN. A step's serialized `duration` is
/// *derived* from its times, and null conflates NaN with ±inf, so an
/// infinite release would re-derive a different duration after one
/// round trip. Engines only ever record finite virtual times; the
/// format guarantees byte-identity on that domain (NaN included).
fn arb_step_time() -> impl Strategy<Value = f64> {
    prop_oneof![Just(f64::NAN), -1e9..1e9f64]
}

/// Counters below 2^53: the wire format carries numbers as f64, so
/// larger u64s would lose low bits in parse (never hit in practice —
/// 2^53 words is nine petabytes of traffic in one superstep).
fn arb_count() -> impl Strategy<Value = u64> {
    0u64..(1 << 53)
}

/// Strings that exercise the JSON escaper: quotes, backslashes,
/// control characters, newlines, unicode.
fn arb_text() -> impl Strategy<Value = String> {
    "[ -~\t\n\"\\\\\u{1}é❦]{0,24}"
}

fn arb_step(procs: usize, levels: usize) -> impl Strategy<Value = StepTrace> {
    (
        0usize..1000,
        (0u32..5).prop_map(|b| if b == 0 { None } else { Some(b - 1) }),
        proptest::collection::vec(arb_step_time(), procs * 6),
        proptest::collection::vec(arb_count(), procs),
        proptest::collection::vec(arb_count(), levels * 2),
        arb_step_time(),
    )
        .prop_map(move |(step, barrier, times, sent, by_level, hrel)| {
            let col = |i: usize| &times[i * procs..(i + 1) * procs];
            StepTrace::from_record(&StepRecord {
                step,
                barrier,
                starts: col(0),
                compute_done: col(1),
                send_done: col(2),
                finish: col(3),
                releases: col(4),
                words_by_level: &by_level[..levels],
                messages_by_level: &by_level[levels..],
                hrelation: hrel,
                work: col(5),
                sent_words: &sent,
                wall: None,
            })
        })
}

fn arb_event() -> impl Strategy<Value = EventTrace> {
    prop_oneof![
        (0usize..100, proptest::collection::vec(0u32..64, 0..4)).prop_map(|(step, pids)| {
            EventTrace::WatchdogFired {
                step,
                missing: pids.into_iter().map(ProcId).collect(),
            }
        }),
        (0usize..100, 0u32..64, 0usize..64).prop_map(|(step, pid, remaining)| {
            EventTrace::Degraded {
                step,
                dead: vec![ProcId(pid)],
                remaining,
            }
        }),
        (0usize..10).prop_map(|attempt| EventTrace::RecoveryAttempt { attempt }),
        (0usize..8, 0usize..100, arb_time(), arb_text(), arb_time()).prop_map(
            |(segment, step, drift, strategy, predicted)| EventTrace::Replan {
                segment,
                step,
                drift,
                strategy,
                predicted,
            }
        ),
    ]
}

fn arb_metric() -> impl Strategy<Value = MetricSample> {
    (
        arb_text(),
        prop_oneof![
            arb_count().prop_map(MetricValue::Counter),
            (arb_count(), arb_time())
                .prop_map(|(count, sum)| MetricValue::Histogram { count, sum }),
        ],
    )
        .prop_map(|(name, value)| MetricSample { name, value })
}

/// A well-formed span tree: each span's parent is an earlier id.
fn arb_spans() -> impl Strategy<Value = Vec<CausalSpan>> {
    proptest::collection::vec((arb_text(), arb_time(), arb_time(), 0usize..4), 0..6).prop_map(
        |raw| {
            let mut tree = CausalTree::new();
            let kinds = [
                CausalKind::Batch,
                CausalKind::Job,
                CausalKind::Segment,
                CausalKind::Superstep,
            ];
            for (i, (label, start, end, k)) in raw.into_iter().enumerate() {
                let parent = if i == 0 { None } else { Some(i - 1) };
                tree.push(kinds[k], label, parent, start, end);
            }
            tree.into_spans()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Export → parse → re-export is byte-identical for arbitrary
    /// bundles; the parsed value re-exports stably forever after.
    #[test]
    fn bundle_jsonl_roundtrip_is_byte_identical(
        reason in arb_text(),
        engine in arb_text(),
        step in 0usize..10_000,
        machine in arb_text(),
        fault_plan in arb_text(),
        decision_log in arb_text(),
        steps in proptest::collection::vec(arb_step(3, 2), 0..4),
        events in proptest::collection::vec(arb_event(), 0..5),
        metrics in proptest::collection::vec(arb_metric(), 0..5),
        spans in arb_spans(),
    ) {
        let bundle = PostmortemBundle {
            reason, engine, step, machine, fault_plan,
            steps, events, decision_log, metrics, spans,
        };
        let text = bundle.to_jsonl();
        let parsed = PostmortemBundle::parse(&text)
            .map_err(|e| TestCaseError::fail(format!("parse failed: {e}")))?;
        prop_assert_eq!(&parsed.to_jsonl(), &text, "first re-export differs");
        // Idempotent from then on.
        let again = PostmortemBundle::parse(&parsed.to_jsonl())
            .map_err(|e| TestCaseError::fail(format!("re-parse failed: {e}")))?;
        prop_assert_eq!(again.to_jsonl(), text, "second re-export differs");
    }
}
