//! Property tests for the closed adaptive loop.
//!
//! Three contracts, each over randomized machines and fault scripts:
//!
//! 1. **Decision-log bit-identity** — the adaptive controller's
//!    decisions depend only on virtual-time telemetry, so the same job
//!    on the same random HBSP^1–3 machine produces byte-identical
//!    decision logs on the simulator and the threaded runtime.
//! 2. **Parameter recovery** — on a frictionless network, a
//!    calibration fitted from either engine's telemetry recovers the
//!    machine's true `g`, `L`, per-processor `r` and speed within
//!    tolerance (and the two engines' fits are bit-identical).
//! 3. **Robust calibration** — a seeded straggle fault corrupts a
//!    window; `calibrate_robust` trims the corrupted step and still
//!    lands within tolerance of the truth.

use hbsp_collectives::{CollectiveKind, RepeatedCollective};
use hbsp_core::{
    topology, MachineTree, ProcEnv, ProcId, SpmdContext, SpmdProgram, StepOutcome, SyncScope,
    TreeBuilder,
};
use hbsp_obs::{calibrate, calibrate_robust, Recorder};
use hbsp_sim::{FaultPlan, NetConfig, SplitMix64};
use hbsplib::{AdaptiveConfig, AdaptiveExecutor, Executor};
use proptest::prelude::*;
use std::sync::Arc;

/// Render a random HBSP^`depth` machine in the topology DSL and parse
/// it back: 2 children per cluster, `r` in \[1, 4\) with the global
/// fastest pinned to `r = 1, speed = 1` (the Table-1 normalization the
/// repo's machine files use).
#[expect(
    clippy::expect_used,
    reason = "a generated machine that does not parse fails the test"
)]
fn random_machine(depth: usize, seed: u64) -> Arc<MachineTree> {
    let mut rng = SplitMix64::new(seed ^ 0xAD4A_97C1);
    let g = 0.5 + rng.below(30) as f64 / 10.0;
    let mut text = format!("g = {g}\nk = {depth}\n");
    let mut first = true;
    fn cluster(
        text: &mut String,
        rng: &mut SplitMix64,
        first: &mut bool,
        level: usize,
        path: String,
    ) {
        let l = 100.0 * (1 + rng.below(20)) as f64 * level as f64;
        text.push_str(&format!("cluster c{path} (L={l}) {{\n"));
        for i in 0..2 {
            if level > 1 {
                cluster(text, rng, first, level - 1, format!("{path}-{i}"));
            } else {
                let (r, speed) = if *first {
                    (1.0, 1.0)
                } else {
                    let r = 1.0 + rng.below(30) as f64 / 10.0;
                    (r, (10.0 / (10.0 + rng.below(25) as f64)) / r)
                };
                *first = false;
                text.push_str(&format!("proc p{path}-{i} (r={r}, speed={speed})\n"));
            }
        }
        text.push_str("}\n");
    }
    cluster(&mut text, &mut rng, &mut first, depth, "0".to_string());
    Arc::new(topology::parse(&text).expect("generated machine parses"))
}

/// A pack-only network: the cost model's `w + g·h + L` is *exact*
/// under it (no unpack on the critical path, no per-message overhead,
/// no shared medium), so calibration must land on the true parameters
/// up to fp noise.
fn pack_only() -> NetConfig {
    let mut cfg = NetConfig::ideal();
    cfg.recv_word_cost = 0.0;
    cfg
}

/// A calibration workload with per-step variation: every processor
/// ships a step-dependent payload to its right neighbour and charges
/// work *proportional to its own speed* (so all compute intervals are
/// equal and the critical path is exactly `w + g·h + L`). `h` varies
/// with the step, separating `g` from `L`; every processor's `r` and
/// speed are observable.
struct VaryProg {
    rounds: usize,
}

impl SpmdProgram for VaryProg {
    type State = ();
    fn init(&self, _env: &ProcEnv) {}
    fn step(
        &self,
        step: usize,
        env: &ProcEnv,
        _state: &mut (),
        ctx: &mut dyn SpmdContext,
    ) -> StepOutcome {
        if step >= self.rounds {
            return StepOutcome::Done;
        }
        let words = 16 * (step + 1);
        let dst = ProcId(((env.pid.rank() + 1) % env.nprocs) as u32);
        ctx.send(dst, 0, &vec![0u8; 4 * words]);
        let my_speed = env.tree.leaf(env.pid).params().speed;
        ctx.charge(my_speed * 2.0 * ((step % 3) + 1) as f64);
        StepOutcome::Continue(SyncScope::global(&env.tree))
    }
}

/// A flat truth machine with known parameters, plus those truths.
#[expect(
    clippy::expect_used,
    reason = "a truth machine that does not build fails the test"
)]
fn flat_truth(seed: u64) -> (Arc<MachineTree>, f64, f64, Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed ^ 0x17F0_3A55);
    let g = 0.5 + rng.below(25) as f64 / 10.0;
    let l = 50.0 * (1 + rng.below(20)) as f64;
    let p = 3 + rng.below(3) as usize;
    let mut rs = vec![1.0f64];
    let mut speeds = vec![1.0f64];
    for _ in 1..p {
        let r = 1.0 + rng.below(30) as f64 / 10.0;
        rs.push(r);
        speeds.push(10.0 / (10.0 + rng.below(25) as f64) / r);
    }
    let procs: Vec<(f64, f64)> = rs.iter().zip(&speeds).map(|(&r, &s)| (r, s)).collect();
    let tree = TreeBuilder::flat(g, l, &procs).expect("flat truth machine builds");
    (Arc::new(tree), g, l, rs, speeds)
}

fn rel_err(got: f64, truth: f64) -> f64 {
    (got - truth).abs() / truth.abs().max(1e-9)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adaptive_decision_logs_are_bit_identical_on_random_machines(
        depth in 1usize..=3,
        seed in any::<u64>(),
        kind_sel in 0usize..3,
        ramp_sel in any::<u64>(),
    ) {
        let tree = random_machine(depth, seed);
        let kind = [
            CollectiveKind::Broadcast,
            CollectiveKind::Allgather,
            CollectiveKind::Scatter,
        ][kind_sel];
        let job = RepeatedCollective::new(kind, 128, seed);
        let mut rng = SplitMix64::new(ramp_sel);
        let pid = ProcId(rng.below(tree.num_procs() as u64) as u32);
        let start = rng.below(3) as usize;
        let faults = FaultPlan::new().straggle_ramp(
            pid,
            start,
            3 + rng.below(5) as usize,
            2.0 + rng.below(4) as f64,
            1.0 + rng.below(3) as f64,
        );
        let cfg = AdaptiveConfig {
            window: 2,
            drift_threshold: 0.4,
            calibration_trim: 0.25,
        };
        let run = |exec: Executor| {
            AdaptiveExecutor::new(exec.faults(faults.clone()))
                .config(cfg)
                .run(&job, 6)
                .expect("adaptive run completes")
        };
        let sim = run(Executor::simulator(tree.clone()));
        let thr = run(Executor::threads(tree.clone()));
        prop_assert_eq!(sim.decision_log(), thr.decision_log());
        prop_assert_eq!(sim.total_time.to_bits(), thr.total_time.to_bits());
        prop_assert_eq!(sim.replans, thr.replans);
    }

    #[test]
    fn calibration_recovers_true_parameters_on_both_engines(
        seed in any::<u64>(),
    ) {
        let (tree, g, l, rs, speeds) = flat_truth(seed);
        let prog = VaryProg { rounds: 8 };
        let observe = |exec: Executor| {
            let rec = Arc::new(Recorder::new());
            exec.probe(rec.clone()).run(&prog).expect("clean run");
            calibrate(&rec.steps()).expect("fit succeeds")
        };
        let sim = observe(Executor::simulator_with(tree.clone(), pack_only()));
        let thr = observe(Executor::threads_with(tree.clone(), pack_only()));
        // Identical telemetry, identical fit.
        prop_assert_eq!(&sim, &thr);
        // The fit lands on the truth: the frictionless network makes
        // the cost model exact, so only fp noise separates them.
        prop_assert!(rel_err(sim.g, g) < 0.02, "g: fit {} truth {}", sim.g, g);
        let (_, l_hat) = sim.l_by_level[0];
        prop_assert!(rel_err(l_hat, l) < 0.05, "L: fit {l_hat} truth {l}");
        for (i, (&r_hat, &r)) in sim.r_by_proc.iter().zip(&rs).enumerate() {
            prop_assert!(rel_err(r_hat, r) < 0.05, "r[{i}]: fit {r_hat} truth {r}");
        }
        for (i, (&s_hat, &s)) in sim.speed_by_proc.iter().zip(&speeds).enumerate() {
            prop_assert!(rel_err(s_hat, s) < 0.05, "speed[{i}]: fit {s_hat} truth {s}");
        }
    }

    #[expect(clippy::disallowed_methods, reason = "tests the robust fit itself")]
    #[test]
    fn robust_calibration_survives_a_seeded_straggle(
        seed in any::<u64>(),
        fault_sel in any::<u64>(),
    ) {
        let (tree, g, _l, _rs, _speeds) = flat_truth(seed);
        let mut rng = SplitMix64::new(fault_sel);
        let pid = ProcId(rng.below(tree.num_procs() as u64) as u32);
        let step = rng.below(7) as usize;
        let factor = 10.0 + rng.below(30) as f64;
        let faults = FaultPlan::new().straggle(pid, step, factor);
        let rec = Arc::new(Recorder::new());
        Executor::simulator_with(tree.clone(), pack_only())
            .faults(faults)
            .probe(rec.clone())
            .run(&VaryProg { rounds: 8 })
            .expect("straggle never kills the run");
        let steps = rec.steps();
        let robust = calibrate_robust(&steps, &rec.events(), 0.25).expect("robust fit");
        prop_assert!(
            rel_err(robust.calibration.g, g) < 0.05,
            "robust g: fit {} truth {} (trimmed {:?}, excluded {:?})",
            robust.calibration.g,
            g,
            robust.trimmed,
            robust.excluded
        );
        // The trimmed fit is never worse than the naive one on the
        // same window (it only removes outlier steps).
        if let Ok(naive) = calibrate(&steps) {
            prop_assert!(
                rel_err(robust.calibration.g, g) <= rel_err(naive.g, g) + 1e-9,
                "robust {} vs naive {} (truth {})",
                robust.calibration.g,
                naive.g,
                g
            );
        }
    }
}
