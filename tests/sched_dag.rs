//! Acceptance test for the multi-tenant scheduler: a 126-job workflow
//! DAG — fork-join plus the five basic workflow patterns (fan,
//! sequence, diamond, pipeline pairs, independent singles), all
//! expressed through `blocked_by` — drained on the shipped campus
//! machine.
//!
//! Asserts the scheduler's three contracts:
//! 1. **Determinism** — per-job final states, placements, and the
//!    virtual makespan are bit-identical across the discrete-event
//!    simulator and the threaded runtime;
//! 2. **Isolation** — no two jobs of the same admission batch claim
//!    sub-trees sharing a leaf;
//! 3. **Batching pays** — merged shared-barrier admission finishes the
//!    graph in strictly less virtual time than the serial control arm.
//!
//! Below those, the committed 1000-job fixture's drain is pinned exactly
//! (batches, makespan bits, re-plans, placements), and admission's
//! ordering rules are checked on small graphs.

use hbsp::bench::jobfile;
use hbsp::collectives::tune::best_plan;
use hbsp::core::{topology, ProcId};
use hbsp::sched::{CollectiveKind, Engine, Job, JobId, RunOptions, SchedReport, Scheduler};
use std::collections::HashSet;
use std::sync::Arc;

fn machine(path: &str) -> Arc<hbsp::core::MachineTree> {
    let text = std::fs::read_to_string(path).expect("machine file");
    Arc::new(topology::parse(&text).expect("machine parses"))
}

fn campus() -> Arc<hbsp::core::MachineTree> {
    machine("machines/campus.hbsp")
}

/// The seven collectives round-robin across the graph so every lowering
/// participates in merged batches.
fn kind(i: usize) -> CollectiveKind {
    CollectiveKind::ALL[i % CollectiveKind::ALL.len()]
}

/// 126 jobs: 14 six-job fork-join blocks interleaved with fan,
/// sequence, diamond, pipeline-pair, and independent-single blocks.
fn build_graph(sched: &mut Scheduler) {
    let mut i = 0usize;
    let mut job = |deps: &[JobId], n: u64| -> JobId {
        let j = Job::collective(format!("j{i}"), kind(i), n)
            .with_seed(i as u64)
            .after(deps);
        i += 1;
        sched.submit(j)
    };
    for block in 0..21 {
        match block % 5 {
            // Fork-join: src -> {a, b, c, d} -> join.
            0 => {
                let src = job(&[], 16);
                let mids: Vec<JobId> = (0..4).map(|m| job(&[src], 8 + m)).collect();
                job(&mids, 16);
            }
            // Fan: one source, four dependents.
            1 => {
                let src = job(&[], 32);
                for _ in 0..4 {
                    job(&[src], 8);
                }
                job(&[], 8); // plus an unrelated single
            }
            // Sequence: a six-stage chain.
            2 => {
                let mut prev = job(&[], 8);
                for _ in 0..5 {
                    prev = job(&[prev], 8);
                }
            }
            // Diamond: a -> {b, c} -> d, twice over.
            3 => {
                for _ in 0..2 {
                    let a = job(&[], 16);
                    let b = job(&[a], 8);
                    let c = job(&[a], 8);
                    job(&[b, c], 16);
                }
                // (3 jobs of slack used by the next block)
            }
            // Pipeline pairs + independent singles.
            _ => {
                let a = job(&[], 8);
                job(&[a], 8);
                let b = job(&[], 8);
                job(&[b], 8);
                job(&[], 32);
                job(&[], 32);
            }
        }
    }
    assert!(
        sched.jobs().len() >= 100,
        "acceptance graph must be ≥100 jobs"
    );
}

fn assert_batches_leaf_disjoint(rep: &SchedReport) {
    for batch in &rep.batches {
        let mut seen = HashSet::new();
        for &id in &batch.jobs {
            for leaf in rep.jobs[id.0].leaves.iter() {
                assert!(
                    seen.insert(*leaf),
                    "batch {}: leaf {leaf} claimed by two concurrent jobs",
                    batch.index
                );
            }
        }
    }
}

#[test]
fn campus_workflow_dag_is_deterministic_isolated_and_batching_wins() {
    let mut sched = Scheduler::new(campus());
    build_graph(&mut sched);
    let n = sched.jobs().len();

    let sim = sched
        .run(&RunOptions {
            engine: Engine::Simulator,
            serial: false,
            adapt: None,
        })
        .expect("simulator drains the graph");
    let thr = sched
        .run(&RunOptions {
            engine: Engine::Threads,
            serial: false,
            adapt: None,
        })
        .expect("threaded runtime drains the graph");
    let serial = sched
        .run(&RunOptions {
            engine: Engine::Simulator,
            serial: true,
            adapt: None,
        })
        .expect("serial control arm drains the graph");

    // Everything ran, nothing decoded garbage.
    assert_eq!(sim.jobs.len(), n);
    assert!(sim.clean() && thr.clean() && serial.clean());

    // 1. Bit-identical across engines: states, placements, clock.
    for (a, b) in sim.jobs.iter().zip(&thr.jobs) {
        assert_eq!(
            a.states, b.states,
            "{}: states diverge across engines",
            a.id
        );
        assert_eq!(a.leaves, b.leaves, "{}: placement diverges", a.id);
        assert_eq!(a.batch, b.batch, "{}: admission diverges", a.id);
        assert_eq!(a.root, b.root);
    }
    assert_eq!(sim.total_time, thr.total_time);
    assert_eq!(sim.batches.len(), thr.batches.len());

    // 2. Concurrent jobs never share a leaf.
    assert_batches_leaf_disjoint(&sim);
    assert_batches_leaf_disjoint(&serial);

    // 3. Batched admission strictly beats one-job-per-round in virtual
    //    time. (Per-job *states* may legitimately differ between the
    //    modes: placement is admission-dependent and workload shares
    //    follow the claimed leaves' speeds — the determinism contract
    //    is across engines, per admission mode.)
    assert_eq!(serial.batches.len(), n);
    assert!(sim.batches.len() < n);
    assert!(
        sim.total_time < serial.total_time,
        "batched {} must beat serial {}",
        sim.total_time,
        serial.total_time
    );

    // Dependencies really were honored: every blocked job ran in a
    // strictly later batch than all of its prerequisites.
    for (i, job) in sched.jobs().iter().enumerate() {
        for dep in &job.blocked_by {
            assert!(
                sim.jobs[dep.0].batch < sim.jobs[i].batch,
                "job {i} ran no later than its dependency {}",
                dep.0
            );
        }
    }
}

/// Drain `fixtures/jobs_1000.jobs` on the machine at `path`, simulator.
fn drain_fixture(path: &str, adapt: Option<f64>) -> SchedReport {
    let text = std::fs::read_to_string("fixtures/jobs_1000.jobs").expect("job fixture");
    let (parsed, errors) = jobfile::parse(&text);
    assert!(errors.is_empty() && jobfile::validate(&parsed).is_empty());
    let mut sched = Scheduler::new(machine(path));
    for p in parsed {
        sched.submit(p.job);
    }
    let opts = RunOptions {
        engine: Engine::Simulator,
        serial: false,
        adapt,
    };
    sched.run(&opts).expect("fixture drains")
}

/// FNV-1a, one 64-bit word at a time, over every job's id, batch,
/// claimed node and claimed leaves: equal iff the placements are.
fn placement_fingerprint(rep: &SchedReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    for j in &rep.jobs {
        fold(j.id.index() as u64);
        fold(j.batch as u64);
        fold(j.node.index() as u64);
        fold(j.leaves.len() as u64);
        j.leaves.iter().for_each(|l| fold(l.rank() as u64));
    }
    h
}

/// The same FNV-1a over every batch's prediction, observed cost and
/// drift statistic, bit for bit: a one-ulp change to any of them moves
/// it, which the re-plan count alone would not show.
fn prediction_fingerprint(rep: &SchedReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |w: u64| h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    for b in &rep.batches {
        fold(b.predicted.to_bits());
        fold(b.observed().to_bits());
        let drift = b.drift.as_ref().map(|d| d.mean_abs_rel_error());
        fold(drift.unwrap_or(f64::INFINITY).to_bits());
    }
    h
}

/// The fixture drain, pinned: what the CI benchmark gates on
/// (`sched.batches`, `harness.model_time`) plus where every job ran and
/// what every batch was predicted to cost, on both shipped machines and
/// with the closed loop re-placing on grid3. Placement may get faster;
/// it may not place or predict differently.
#[test]
fn fixture_drain_is_pinned_bit_for_bit() {
    let grid3 = "machines/grid3.hbsp";
    #[rustfmt::skip]
    let cases = [
        (grid3, None, 253, 590925.5564069255, 0, 0x1aae_3a84_bce8_6764, 0x4db1_ee01_e4a0_1421),
        ("machines/campus.hbsp", None, 502, 1295308.894270432, 0, 0x5933_1685_1660_1f69, 0x9215_c6bb_ea3c_5d62),
        (grid3, Some(0.05), 253, 596277.164920635, 212, 0x90d9_72ab_fe3b_f713, 0xd262_be4c_e2a4_3fe9),
    ];
    for (path, adapt, batches, makespan, replans, placements, predictions) in cases {
        let rep = drain_fixture(path, adapt);
        let case = format!("{path}, adapt {adapt:?}");
        assert!(rep.clean(), "{case}");
        assert_eq!(rep.batches.len(), batches, "{case}");
        assert_eq!(rep.replans, replans, "{case}");
        let bits = rep.total_time.to_bits();
        assert_eq!(bits, f64::to_bits(makespan), "{case}: {}", rep.total_time);
        let fingerprint = placement_fingerprint(&rep);
        assert_eq!(fingerprint, placements, "{case}: {fingerprint:#018x}");
        let fingerprint = prediction_fingerprint(&rep);
        assert_eq!(fingerprint, predictions, "{case}: {fingerprint:#018x}");
    }
}

fn gather(name: &str, min_procs: usize, deps: &[JobId]) -> Job {
    Job::collective(name, CollectiveKind::Gather, 16)
        .with_min_procs(min_procs)
        .after(deps)
}

fn drain_sim(sched: &Scheduler, adapt: Option<f64>) -> SchedReport {
    let opts = RunOptions {
        engine: Engine::Simulator,
        serial: false,
        adapt,
    };
    sched.run(&opts).expect("graph drains")
}

/// Once a round's leaves are all claimed, or too few are left for a
/// job, later ready jobs wait for the next round, and every round takes
/// ready jobs in submission order.
#[test]
fn a_full_round_defers_later_jobs_in_submission_order() {
    // Campus: two 4-leaf LANs under an 8-leaf root.
    let mut s = Scheduler::new(campus());
    let whole: Vec<JobId> = (0..3)
        .map(|k| s.submit(gather(&format!("whole{k}"), 8, &[])))
        .collect();
    let rep = drain_sim(&s, None);
    for (k, id) in whole.iter().enumerate() {
        assert_eq!(rep.jobs[id.0].batch, k, "{}", rep.render_text());
        assert_eq!(rep.batches[k].jobs, vec![*id]);
    }

    // A job that needs more leaves than are free waits without holding
    // back a later one that fits.
    let mut s = Scheduler::new(campus());
    let first = s.submit(gather("lan-a", 2, &[]));
    let big = s.submit(gather("whole", 8, &[]));
    let second = s.submit(gather("lan-b", 2, &[]));
    let rep = drain_sim(&s, None);
    let batch = |id: JobId| rep.jobs[id.0].batch;
    assert_eq!((batch(first), batch(second), batch(big)), (0, 0, 1));
    assert_eq!(rep.batches[0].jobs, vec![first, second]);
    assert_eq!(
        rep.jobs[first.0].leaves.len() + rep.jobs[second.0].leaves.len(),
        8
    );
}

/// A job whose last dependency finishes in batch `b` is claimable in
/// batch `b + 1`, behind any earlier-submitted job that is ready too.
#[test]
fn a_job_is_claimable_the_batch_after_its_last_dependency() {
    let mut s = Scheduler::new(campus());
    let a = s.submit(gather("a", 8, &[]));
    let x = s.submit(gather("x", 8, &[]));
    let c = s.submit(gather("c", 2, &[a, x]));
    let d = s.submit(gather("d", 2, &[a]));
    let rep = drain_sim(&s, None);
    let batch = |id: JobId| rep.jobs[id.0].batch;
    assert_eq!((batch(a), batch(x)), (0, 1));
    assert_eq!(batch(c), batch(x) + 1, "{}", rep.render_text());
    // `d` was ready from batch 1, but `x` came first and took every leaf.
    assert_eq!(batch(d), 2);
    assert_eq!(rep.batches.len(), 3);
}

/// After a re-plan, jobs are priced on the new belief: a chain of
/// same-shaped broadcasts, each in its own batch, re-plans after every
/// batch but the last, and the last job's prediction is `best_plan` on
/// its node carved from the final belief — not the price a cache kept
/// from the machine file.
#[test]
fn a_replan_reprices_on_the_new_belief() {
    let tree = campus();
    let straggler = hbsp::sim::FaultPlan::new().straggle_ramp(ProcId(0), 0, 4, 12.0, 0.0);
    let mut s = Scheduler::new(tree.clone()).with_faults(straggler);
    let mut prev = Vec::new();
    for i in 0..4 {
        let job = Job::collective(format!("b{i}"), CollectiveKind::Broadcast, 256).after(&prev);
        prev = vec![s.submit(job)];
    }
    let rep = drain_sim(&s, Some(0.0));
    assert_eq!(rep.batches.len(), 4);
    assert_eq!(rep.replans, 3, "{}", rep.render_text());
    let price = |belief: &hbsp::core::MachineTree, node| {
        let carved = belief.carve(node);
        best_plan(&carved.tree, CollectiveKind::Broadcast, 256)
            .expect("plan")
            .cost
    };
    let last = rep.jobs.last().expect("four jobs");
    assert_eq!(
        last.predicted.to_bits(),
        price(&rep.belief, last.node).to_bits()
    );
    assert_ne!(
        last.predicted,
        price(&tree, last.node),
        "the belief never moved"
    );
    // The first job ran before any re-plan, on the machine file.
    let first = &rep.jobs[0];
    assert_eq!(
        first.predicted.to_bits(),
        price(&tree, first.node).to_bits()
    );
}
