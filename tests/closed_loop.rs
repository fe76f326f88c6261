//! Frozen outputs of the two closed loops.
//!
//! The adaptive executor's segment loop and the scheduler's batch loop
//! observe, detect and re-plan through one `hbsplib::ClosedLoop`. What
//! they print is pinned byte for byte in `golden/`:
//!
//! * the decision log and causal spans of the CI's adaptive run
//!   (`hbsp_adapt --threshold 0.3 --faults fixtures/straggler_ramp.faults
//!   machines/campus.hbsp`, default window 2, 12 rounds of a 256-item
//!   broadcast), on both engines;
//! * the open-loop report and causal spans of the three-job graph in
//!   `tests/postmortem.rs`, on both engines.
//!
//! Spans print as `Debug`, whose `f64`s are shortest-roundtrip: equal
//! text is equal bits.

use hbsp::collectives::{CollectiveKind, RepeatedCollective};
use hbsp::core::topology;
use hbsp::lib::{AdaptiveConfig, AdaptiveExecutor, Executor};
use hbsp::obs::CausalSpan;
use hbsp::prelude::*;
use hbsp::sched::{Engine, Job, RunOptions, Scheduler};
use std::sync::Arc;

fn campus() -> Arc<hbsp::core::MachineTree> {
    let text = std::fs::read_to_string("machines/campus.hbsp").expect("campus machine file");
    Arc::new(topology::parse(&text).expect("campus machine parses"))
}

fn spans_text(spans: &[CausalSpan]) -> String {
    spans.iter().map(|s| format!("{s:?}\n")).collect()
}

#[test]
fn adaptive_ci_run_prints_the_frozen_log_and_spans() {
    let text = std::fs::read_to_string("fixtures/straggler_ramp.faults").expect("fault fixture");
    let faults = FaultPlan::parse(&text).expect("fault fixture parses");
    let job = RepeatedCollective::new(CollectiveKind::Broadcast, 256, 3);
    let cfg = AdaptiveConfig {
        window: 2,
        drift_threshold: 0.3,
        ..AdaptiveConfig::default()
    };
    for exec in [Executor::simulator(campus()), Executor::threads(campus())] {
        let out = AdaptiveExecutor::new(exec.faults(faults.clone()))
            .config(cfg)
            .run(&job, 12)
            .expect("adaptive run completes");
        let got = format!("{}\n{}", out.decision_log(), spans_text(&out.spans));
        assert_eq!(got, include_str!("golden/closed_loop_adaptive_campus.txt"));
    }
}

#[test]
fn open_loop_drain_prints_the_frozen_report_and_spans() {
    let mut sched = Scheduler::new(campus());
    let a = sched.submit(Job::collective("a", CollectiveKind::Broadcast, 64));
    let b = sched.submit(Job::collective("b", CollectiveKind::Gather, 32));
    sched.submit(Job::collective("c", CollectiveKind::Scatter, 16).after(&[a, b]));
    for engine in [Engine::Simulator, Engine::Threads] {
        let rep = sched
            .run(&RunOptions {
                engine,
                serial: false,
                adapt: None,
            })
            .expect("graph drains");
        let got = format!("{}\n{}", rep.render_text(), spans_text(&rep.causal));
        assert_eq!(got, include_str!("golden/closed_loop_sched_open.txt"));
    }
}
